package exp

import (
	"reflect"
	"testing"
)

// TestParallelMatchesSerial asserts the acceptance property of the
// parallel harness: fanning the (case, policy, frequency) runs across
// workers yields results identical to serial execution with the same
// seed — every run owns its own kernel and forked RNG streams.
func TestParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	serial := Options{}
	serial.Workers = 1
	parallel := Options{}
	parallel.Workers = 0 // GOMAXPROCS

	t.Run("fig5", func(t *testing.T) {
		s, p := must(Fig5(serial)), must(Fig5(parallel))
		if !reflect.DeepEqual(s, p) {
			t.Fatal("Fig5 parallel results differ from serial")
		}
	})
	t.Run("fig8", func(t *testing.T) {
		s, p := must(Fig8(serial)), must(Fig8(parallel))
		if !reflect.DeepEqual(s, p) {
			t.Fatal("Fig8 parallel results differ from serial")
		}
	})
	t.Run("fig7", func(t *testing.T) {
		s, p := must(Fig7(serial)), must(Fig7(parallel))
		if !reflect.DeepEqual(s, p) {
			t.Fatal("Fig7 parallel results differ from serial")
		}
	})
}

// must unwraps a figure helper's result; the helpers only fail on options
// Validate refuses or on a journal error, neither of which these tests
// expect.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
