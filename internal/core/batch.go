package core

import "fmt"

// BatchRequest is one pooling query of a batch.
type BatchRequest struct {
	Idx     []int
	Weights []uint64
}

// BatchResult pairs a request's output with its error (ErrVerification on
// a rejected result).
type BatchResult struct {
	Res []uint64
	Err error
}

// FirstError returns the first non-nil error of a batch, annotated with
// its request index, or nil.
func FirstError(results []BatchResult) error {
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("core: batch request %d: %w", i, r.Err)
		}
	}
	return nil
}
