package cpu

// AVX2 reports whether this CPU has AVX2 and the OS saves the YMM state
// across context switches — both are needed before a Y register may be used.
// FMA reports whether it has AVX and FMA under the same OS support: exactly
// the condition (math's useFMA) under which math.Exp takes its fused
// multiply-add branch, which the vector exp in internal/tensor must follow.
// AVX512 reports whether it has AVX-512F and the OS also saves the opmask
// and ZMM state, so K and Z registers may be used.
var AVX2, FMA, AVX512 = detect()

func detect() (avx2, fma, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return false, false, false
	}
	const fmaBit, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(osxsave|avx) != osxsave|avx {
		return false, false, false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	const zmmState = 1<<5 | 1<<6 | 1<<7 // opmask, ZMM0–15 upper halves, ZMM16–31
	xcr0, _ := xgetbv()
	if xcr0&(xmmState|ymmState) != xmmState|ymmState {
		return false, false, false
	}
	fma = ecx&fmaBit != 0
	if maxLeaf < 7 {
		return false, fma, false
	}
	const avx2Bit, avx512fBit = 1 << 5, 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2Bit != 0, fma, ebx&avx512fBit != 0 && xcr0&zmmState == zmmState
}

// cpuid and xgetbv run the instructions of the same names (xgetbv reads
// XCR0, the register that lists the state the OS saves).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
