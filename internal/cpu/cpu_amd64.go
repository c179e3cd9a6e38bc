package cpu

// AVX2 reports whether this CPU has AVX2 and the OS saves the YMM state
// across context switches — both are needed before a Y register may be used.
var AVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if eax, _ := xgetbv(); eax&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cpuid and xgetbv run the instructions of the same names (xgetbv reads
// XCR0, the register that lists the state the OS saves).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
