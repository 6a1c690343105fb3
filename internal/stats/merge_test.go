package stats_test

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/noc"
	"repro/internal/nuca"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// fillSentinels sets every exported numeric leaf of v to a distinct
// positive value, gives slices two elements and maps one entry so their
// element paths exist, and stamps strings/bools non-zero.
func fillSentinels(v reflect.Value, next *float64) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*next++
		v.SetInt(int64(*next))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		*next++
		v.SetUint(uint64(*next))
	case reflect.Float32, reflect.Float64:
		*next++
		v.SetFloat(*next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillSentinels(v.Field(i), next)
			}
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fillSentinels(s.Index(i), next)
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillSentinels(v.Index(i), next)
		}
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		k := reflect.New(v.Type().Key()).Elem()
		if k.Kind() == reflect.String {
			k.SetString("k")
		}
		e := reflect.New(v.Type().Elem()).Elem()
		fillSentinels(e, next)
		m.SetMapIndex(k, e)
		v.Set(m)
	case reflect.String:
		v.SetString("sentinel")
	case reflect.Bool:
		v.SetBool(true)
	}
}

// statsStructs enumerates every Stats-like struct the simulator reports
// through — the same surface renuca-lint's statsmerge analyzer polices
// statically.
func statsStructs() map[string]any {
	return map[string]any{
		"cache.Stats":      cache.Stats{},
		"coherence.Stats":  coherence.Stats{},
		"cpu.Stats":        cpu.Stats{},
		"dram.Stats":       dram.Stats{},
		"energy.Counts":    energy.Counts{},
		"noc.Stats":        noc.Stats{},
		"nuca.Stats":       nuca.Stats{},
		"nuca.QueueStats":  nuca.QueueStats{},
		"predictor.Stats":  predictor.Stats{},
		"sim.CoreCounters": sim.CoreCounters{},
		"sim.Result":       sim.Result{},
		"tlb.Stats":        tlb.Stats{},
		"trace.PaperStats": trace.PaperStats{},
	}
}

// TestMergeSnapshotRoundTripTouchesEveryField is the dynamic twin of the
// statsmerge analyzer: for every Stats-like struct, fill each exported
// numeric field with a distinct sentinel, merge the filled value into a
// zero value twice, and require every field path to appear in the snapshot
// at exactly double its sentinel — so a merge or snapshot that skips a
// counter fails by name.
func TestMergeSnapshotRoundTripTouchesEveryField(t *testing.T) {
	structNames := make([]string, 0)
	all := statsStructs()
	for name := range all {
		structNames = append(structNames, name)
	}
	sort.Strings(structNames)
	for _, name := range structNames {
		zero := all[name]
		t.Run(name, func(t *testing.T) {
			filledPtr := reflect.New(reflect.TypeOf(zero))
			var counter float64
			fillSentinels(filledPtr.Elem(), &counter)
			if counter == 0 {
				t.Fatalf("%s has no exported numeric fields to verify", name)
			}
			filled := filledPtr.Elem().Interface()
			snapFilled := stats.SnapshotNumeric(filled)
			if len(snapFilled) == 0 {
				t.Fatal("snapshot of filled struct is empty")
			}

			dstPtr := reflect.New(reflect.TypeOf(zero))
			stats.MergeNumeric(dstPtr.Interface(), filled)
			stats.MergeNumeric(dstPtr.Interface(), filled)
			snapMerged := stats.SnapshotNumeric(dstPtr.Interface())

			for _, path := range stats.NumericFieldPaths(filled) {
				got, ok := snapMerged[path]
				if !ok {
					t.Errorf("merge dropped counter %s", path)
					continue
				}
				if want := 2 * snapFilled[path]; math.Abs(got-want) > 1e-9 {
					t.Errorf("counter %s = %v after double merge, want %v", path, got, want)
				}
			}
			if len(snapMerged) != len(snapFilled) {
				t.Errorf("merged snapshot has %d paths, filled has %d", len(snapMerged), len(snapFilled))
			}
		})
	}
}

// TestSnapshotCoversAllNumericLeaves cross-checks SnapshotNumeric against
// an independent reflection walk, so the snapshot itself cannot silently
// skip a kind of field.
func TestSnapshotCoversAllNumericLeaves(t *testing.T) {
	var countLeaves func(v reflect.Value) int
	countLeaves = func(v reflect.Value) int {
		switch v.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64:
			return 1
		case reflect.Struct:
			n := 0
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() {
					n += countLeaves(v.Field(i))
				}
			}
			return n
		case reflect.Slice, reflect.Array:
			n := 0
			for i := 0; i < v.Len(); i++ {
				n += countLeaves(v.Index(i))
			}
			return n
		case reflect.Map:
			n := 0
			iter := v.MapRange()
			for iter.Next() {
				n += countLeaves(iter.Value())
			}
			return n
		}
		return 0
	}
	for name, zero := range statsStructs() {
		filledPtr := reflect.New(reflect.TypeOf(zero))
		var counter float64
		fillSentinels(filledPtr.Elem(), &counter)
		want := countLeaves(filledPtr.Elem())
		got := len(stats.SnapshotNumeric(filledPtr.Interface()))
		if got != want {
			t.Errorf("%s: snapshot has %d paths, independent walk found %d numeric leaves", name, got, want)
		}
	}
}

// TestMergeNumericSemantics pins the non-counter rules: identity strings
// survive, dst slices grow, maps merge per key.
func TestMergeNumericSemantics(t *testing.T) {
	type inner struct{ N uint64 }
	type agg struct {
		Name   string
		Vals   []float64
		Nested inner
		ByKey  map[string]int
	}
	dst := agg{Name: "llc", Vals: []float64{1}, ByKey: map[string]int{"a": 1}}
	src := agg{Name: "other", Vals: []float64{10, 20}, Nested: inner{N: 5}, ByKey: map[string]int{"a": 2, "b": 3}}
	stats.MergeNumeric(&dst, src)
	if dst.Name != "llc" {
		t.Errorf("identity field overwritten: %q", dst.Name)
	}
	if len(dst.Vals) != 2 || dst.Vals[0] != 11 || dst.Vals[1] != 20 {
		t.Errorf("slice merge wrong: %v", dst.Vals)
	}
	if dst.Nested.N != 5 {
		t.Errorf("nested merge wrong: %+v", dst.Nested)
	}
	if dst.ByKey["a"] != 3 || dst.ByKey["b"] != 3 {
		t.Errorf("map merge wrong: %v", dst.ByKey)
	}

	var empty agg
	stats.MergeNumeric(&empty, src)
	if empty.Name != "other" {
		t.Errorf("zero identity field should copy from src, got %q", empty.Name)
	}

	defer func() {
		if recover() == nil {
			t.Error("type mismatch did not panic")
		}
	}()
	stats.MergeNumeric(&dst, inner{})
}

// TestNumericFieldPathsSorted pins deterministic path order for reports.
func TestNumericFieldPathsSorted(t *testing.T) {
	paths := stats.NumericFieldPaths(sim.Result{IPC: []float64{1, 2}, MeanIPC: 3})
	if !sort.StringsAreSorted(paths) {
		t.Errorf("paths not sorted: %v", paths)
	}
	joined := strings.Join(paths, ",")
	for _, want := range []string{"IPC[0]", "IPC[1]", "MeanIPC", "LLC."} {
		if !strings.Contains(joined, want) {
			t.Errorf("paths missing %q: %v", want, paths)
		}
	}
}
