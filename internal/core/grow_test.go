package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/coflow"
	"repro/internal/model"
	"repro/internal/simplex"
)

func TestGrow(t *testing.T) {
	h := 3.7
	ladder := []float64{h, 2 * h, 4 * h, 8 * h}
	retryable := []error{
		&model.StatusError{Status: simplex.Infeasible},
		&model.StatusError{Status: simplex.IterLimit},
		&model.ReleaseError{Flow: coflow.FlowRef{Coflow: 2}, Release: 4, Horizon: 3},
		fmt.Errorf("fill: %w", ErrHorizonTooSmall),
	}
	// grow runs Grow with a try that fails with err on its first
	// `fails` calls and then succeeds with the horizon it was given.
	grow := func(err error, fails int) (float64, []float64, error) {
		var calls []float64
		got, gerr := Grow(h, func(x float64) (float64, error) {
			calls = append(calls, x)
			if len(calls) <= fails {
				return 0, err
			}
			return x, nil
		})
		return got, calls, gerr
	}
	for _, err := range retryable {
		if !RetryableLP(err) {
			t.Errorf("RetryableLP(%v) = false", err)
		}
		for fails := 0; fails < len(ladder); fails++ {
			got, calls, gerr := grow(err, fails)
			if gerr != nil || got != ladder[fails] || !slices.Equal(calls, ladder[:fails+1]) {
				t.Errorf("%v failing %d times: got %v, %v after calls %v", err, fails, got, gerr, calls)
			}
		}
		// After 8h the ladder stops and returns the last error.
		if _, calls, gerr := grow(err, len(ladder)); gerr != err || !slices.Equal(calls, ladder) {
			t.Errorf("%v on every call: error %v after calls %v, want it after %v", err, gerr, calls, ladder)
		}
	}
	for _, err := range []error{
		errors.New("missing paths"),
		&model.StatusError{Status: simplex.Unbounded},
	} {
		if RetryableLP(err) {
			t.Errorf("RetryableLP(%v) = true", err)
		}
		if _, calls, gerr := grow(err, 1); gerr != err || !slices.Equal(calls, ladder[:1]) {
			t.Errorf("%v: error %v after calls %v, want it after one call", err, gerr, calls)
		}
	}
	if RetryableLP(nil) {
		t.Error("RetryableLP(nil) = true")
	}
}
