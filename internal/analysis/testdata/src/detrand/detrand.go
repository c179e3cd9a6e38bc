// Package detrand is the analysistest fixture for the detrand analyzer.
package detrand

import (
	"fmt"
	"io"
	"math/rand"
	"time"
)

// Stamp reads the wall clock — flagged.
func Stamp() int64 {
	return time.Now().UnixNano() // want `time\.Now reads the wall clock`
}

// Elapsed uses Since — flagged.
func Elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time\.Since reads the wall clock`
}

// Deadline uses Until — flagged.
func Deadline(t time.Time) time.Duration {
	return time.Until(t) // want `time\.Until reads the wall clock`
}

// Duration arithmetic without the clock — OK.
func Budget(d time.Duration) time.Duration {
	return d * 2
}

// clocked takes an injected clock, as the planner does.
type clocked struct{ clock func() time.Time }

// ClockValue hands time.Now over as a func value: it reads the wall clock
// wherever it is called — flagged.
func ClockValue() clocked {
	return clocked{clock: time.Now} // want `time\.Now reads the wall clock`
}

// SinceValue binds time.Since as a value — flagged.
var SinceValue = time.Since // want `time\.Since reads the wall clock`

// GlobalRand draws from the global source — flagged.
func GlobalRand() int {
	return rand.Intn(10) // want `rand\.Intn draws from the global math/rand source`
}

// GlobalShuffle too — flagged.
func GlobalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `rand\.Shuffle draws from the global math/rand source`
}

// SeededRand derives every draw from an explicit seed — OK.
func SeededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// PointerFormat leaks an address — flagged.
func PointerFormat(v *int) string {
	return fmt.Sprintf("ptr=%p", v) // want `%p formats a pointer address`
}

// FprintfPointer: the format string is the second argument — flagged.
func FprintfPointer(w io.Writer, v *int) {
	fmt.Fprintf(w, "at %p", v) // want `%p formats a pointer address`
}

// EscapedPercent is not a pointer verb — OK.
func EscapedPercent(n int) string {
	return fmt.Sprintf("100%%plus %d", n)
}

// StableFormat has no pointer verbs — OK.
func StableFormat(name string, n int) string {
	return fmt.Sprintf("%s=%d", name, n)
}
