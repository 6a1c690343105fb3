package stats_test

import (
	"reflect"
	"testing"

	"repro/internal/nuca"
)

// TestMergeSnapshotRoundTripTouchesEveryField covers the counter structs that
// suites merge across runs: nuca.Stats and its nested nuca.QueueStats, summed
// by their typed Add methods. Every uint64 leaf of a value gets a distinct
// sentinel, the value is merged into a zero value twice, and every leaf must
// come out at exactly double its sentinel, so a counter that Add skips fails
// by name. Any field kind other than uint64 or struct is fatal, so a new kind
// cannot slip past the check.
func TestMergeSnapshotRoundTripTouchesEveryField(t *testing.T) {
	t.Run("nuca.QueueStats", func(t *testing.T) { addRoundTrip[nuca.QueueStats](t, "QueueStats") })
	t.Run("nuca.Stats", func(t *testing.T) { addRoundTrip[nuca.Stats](t, "Stats") })
}

// addRoundTrip runs the double-merge check for one struct type T whose
// pointer has a typed Add(T) method.
func addRoundTrip[T any, P interface {
	*T
	Add(T)
}](t *testing.T, name string) {
	var filled T
	var n uint64
	fillSentinels(t, reflect.ValueOf(&filled).Elem(), name, &n)
	if n == 0 {
		t.Fatalf("%s has no counters to verify", name)
	}
	var dst T
	P(&dst).Add(filled)
	P(&dst).Add(filled)
	checkDoubled(t, reflect.ValueOf(filled), reflect.ValueOf(dst), name)
}

// fillSentinels gives every uint64 leaf of v (recursing into structs) a
// distinct non-zero value and fails on any other field kind.
func fillSentinels(t *testing.T, v reflect.Value, path string, next *uint64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Uint64:
		*next++
		v.SetUint(*next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillSentinels(t, v.Field(i), path+"."+v.Type().Field(i).Name, next)
		}
	default:
		t.Fatalf("%s: field kind %s is not covered by the merge round-trip test", path, v.Kind())
	}
}

// checkDoubled requires every uint64 leaf of sum to be twice its leaf in
// filled, naming each path where it is not.
func checkDoubled(t *testing.T, filled, sum reflect.Value, path string) {
	t.Helper()
	if filled.Kind() == reflect.Struct {
		for i := 0; i < filled.NumField(); i++ {
			checkDoubled(t, filled.Field(i), sum.Field(i), path+"."+filled.Type().Field(i).Name)
		}
		return
	}
	if got, want := sum.Uint(), 2*filled.Uint(); got != want {
		t.Errorf("%s: merged twice gave %d, want %d (counter missing from Add?)", path, got, want)
	}
}
