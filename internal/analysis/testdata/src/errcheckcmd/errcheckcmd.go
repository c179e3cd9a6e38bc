// Package errcheckcmd is the analysistest fixture for the errcheckcmd
// analyzer.
package errcheckcmd

import (
	"errors"
	"fmt"
	"os"
	"strings"
)

func plan() error                  { return errors.New("OOM") }
func planWith(n int) (int, error)  { return n, nil }
func report(err error)             { _ = err }
func launch(work func() error) any { return work }

// DroppedPlain drops a bare error result — flagged.
func DroppedPlain() {
	plan() // want `plan drops its error result`
}

// DroppedTuple drops the error half of a tuple — flagged.
func DroppedTuple() {
	planWith(4) // want `planWith drops its error result`
}

// DroppedGoDefer drops errors in go and defer statements — flagged.
func DroppedGoDefer() {
	go plan()    // want `go plan drops its error result`
	defer plan() // want `defer plan drops its error result`
}

// DroppedWrite drops an os file write error — flagged.
func DroppedWrite(f *os.File) {
	f.Write([]byte("plan")) // want `f.Write drops its error result`
}

// Handled propagates and checks — not flagged.
func Handled() error {
	if err := plan(); err != nil {
		return err
	}
	n, err := planWith(4)
	if err != nil {
		return err
	}
	report(fmt.Errorf("planned %d", n))
	return nil
}

// Printing uses the allowed fmt print family and builder writes — not
// flagged.
func Printing() string {
	fmt.Println("stage table")
	fmt.Printf("%d stages\n", 8)
	fmt.Fprintf(os.Stderr, "warning\n")
	var b strings.Builder
	b.WriteString("header\n")
	return b.String()
}

// ExplicitDrop assigns the error away; the assignment makes the decision
// visible, so it is not flagged.
func ExplicitDrop() {
	_ = plan()
}
