// Fixture for the errwrap analyzer; package name qbism puts it in the
// analyzer's scope (reseeded.go holds the defects it caught).
package qbism

import (
	"errors"
	"fmt"
)

var errDevice = errors.New("device fault")

func lostV(err error) error {
	return fmt.Errorf("read failed: %v", err) // want "formatted with %v loses the error chain"
}

func lostS(err error) error {
	return fmt.Errorf("read failed: %s", err) // want "formatted with %s loses the error chain"
}

func wrapped(err error) error {
	return fmt.Errorf("read failed: %w", err)
}

func typedWrap(page int) error {
	return fmt.Errorf("page %d: %w", page, errDevice)
}

func nonErrorArgs(page int, detail string) error {
	return fmt.Errorf("page %d: %v", page, detail)
}

func mixedVerbs(page int, err error) error {
	return fmt.Errorf("page %d: %v", page, err) // want "formatted with %v loses the error chain"
}

func explicitIndexSkipped(err error) error {
	return fmt.Errorf("%[1]v", err) // positional indexes shift args; analyzer declines
}

func suppressedFlatten(err error) error {
	//lint:ignore errwrap fixture exercises the suppression path
	return fmt.Errorf("boundary: %v", err)
}
