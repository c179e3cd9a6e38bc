//go:build linux

package cpu

import (
	"os"
	"strings"
	"testing"
)

// TestProbeMatchesCPUInfo holds the CPUID/XGETBV probe to the kernel's view:
// the first "flags" line of /proc/cpuinfo lists avx2 and avx512f exactly when
// the CPU has them and the kernel saves their register state. (Off amd64
// there is no flags line with them and the probe's constants are false.)
func TestProbeMatchesCPUInfo(t *testing.T) {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(b), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if AVX2 != flags["avx2"] {
		t.Errorf("AVX2 = %v, /proc/cpuinfo avx2 = %v", AVX2, flags["avx2"])
	}
	if AVX512 != flags["avx512f"] {
		t.Errorf("AVX512 = %v, /proc/cpuinfo avx512f = %v", AVX512, flags["avx512f"])
	}
}
