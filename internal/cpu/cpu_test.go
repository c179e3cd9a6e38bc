package cpu

import "testing"

// TestPickNamesAndClamps: every level's name picks that level, clamped to the
// widest this CPU has, and an unknown name picks the portable path.
func TestPickNamesAndClamps(t *testing.T) {
	for _, l := range []Level{LevelGeneric, LevelAVX2, LevelAVX512} {
		if got, want := Pick(l.String()), min(l, Widest()); got != want {
			t.Errorf("Pick(%q) = %v, want %v (widest %v)", l.String(), got, want, Widest())
		}
	}
	if got := Pick("sse"); got != LevelGeneric {
		t.Errorf("Pick(%q) = %v, want generic", "sse", got)
	}
}
