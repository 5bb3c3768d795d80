package core

import (
	"fmt"

	"spinddt/internal/transport"
)

// ErrTimeout reports a message whose transport retry budget was exhausted.
// It is the transport package's sentinel re-exported at the core layer:
// the server answers a future that failed with it StatusMsgTimeout, and
// the served client maps that status back to it, so callers can errors.Is
// against it without importing transport.
var ErrTimeout = transport.ErrTimeout

// BatchError carries per-message errors out of a partially failed flush:
// Errs[i] is message i's error, nil for messages that completed. The
// served client (internal/server/client) folds a flush's failed records
// into one, so a caller sees which messages failed.
type BatchError struct {
	Errs []error
}

// Error implements error.
func (e *BatchError) Error() string {
	failed, first := 0, error(nil)
	for _, err := range e.Errs {
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return fmt.Sprintf("core: %d of %d batch messages failed; first: %v", failed, len(e.Errs), first)
}

// Unwrap exposes the non-nil per-message errors to errors.Is/As.
func (e *BatchError) Unwrap() []error {
	out := make([]error, 0, len(e.Errs))
	for _, err := range e.Errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}
