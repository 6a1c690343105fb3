package nuca

import (
	"reflect"
	"testing"
)

// fillLeaves gives every uint64 leaf of v (recursing into structs) a
// distinct non-zero value. Any other field kind is fatal: Add's completeness
// is only pinned for kinds this test knows how to check.
func fillLeaves(t *testing.T, v reflect.Value, path string, next *uint64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Uint64:
		*next++
		v.SetUint(*next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillLeaves(t, v.Field(i), path+"."+v.Type().Field(i).Name, next)
		}
	default:
		t.Fatalf("%s: field kind %s is not covered by the Stats.Add completeness test", path, v.Kind())
	}
}

// checkDoubled requires every uint64 leaf of sum to be twice its leaf in
// orig, naming each path where it is not.
func checkDoubled(t *testing.T, orig, sum reflect.Value, path string) {
	t.Helper()
	if orig.Kind() == reflect.Struct {
		for i := 0; i < orig.NumField(); i++ {
			checkDoubled(t, orig.Field(i), sum.Field(i), path+"."+orig.Type().Field(i).Name)
		}
		return
	}
	if got, want := sum.Uint(), 2*orig.Uint(); got != want {
		t.Errorf("%s: Add gave %d, want %d (counter missing from Add?)", path, got, want)
	}
}

// TestStatsAddSumsEveryCounter gives every counter of Stats a distinct value,
// adds the struct to a copy of itself and requires every counter to double,
// so a counter added to Stats (or QueueStats) but not to Add fails by name.
func TestStatsAddSumsEveryCounter(t *testing.T) {
	var s Stats
	var n uint64
	fillLeaves(t, reflect.ValueOf(&s).Elem(), "Stats", &n)
	sum := s
	sum.Add(s)
	checkDoubled(t, reflect.ValueOf(s), reflect.ValueOf(sum), "Stats")
}
