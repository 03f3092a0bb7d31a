// Fixture: //lint:ignore directives that are diagnostics in their own
// right — malformed, naming no check of the suite, or suppressing
// nothing.
package badignore

import "os"

//lint:ignore errwrap
func missingReason() {}

//lint:ignore
func missingEverything() {}

//lint:ignore determinism the check this names was deleted from the suite
func unknownCheck() {}

//lint:ignore closr a typo names no check either
func typo() {}

//lint:ignore closer the file is closed on every path, so nothing is suppressed
func stale() error {
	f, err := os.Open("fixture")
	if err != nil {
		return err
	}
	return f.Close()
}

//lint:ignore errwrap errwrap never checks this package, so nothing is suppressed
func outOfScope() {}

func used() {
	//lint:ignore closer this directive suppresses the discarded file below
	os.Open("fixture")
}
