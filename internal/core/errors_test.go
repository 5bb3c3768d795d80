package core

import (
	"errors"
	"fmt"
	"testing"
)

// TestBatchErrorUnwrap pins the error type's contract: errors.Is sees
// through to the wrapped sentinel, and Error() counts the failures.
func TestBatchErrorUnwrap(t *testing.T) {
	be := &BatchError{Errs: []error{nil, fmt.Errorf("msg 1: %w", ErrTimeout), nil}}
	if !errors.Is(be, ErrTimeout) {
		t.Fatal("BatchError hides ErrTimeout from errors.Is")
	}
	if got := be.Error(); got != "core: 1 of 3 batch messages failed; first: msg 1: "+ErrTimeout.Error() {
		t.Fatalf("Error() = %q", got)
	}
}
