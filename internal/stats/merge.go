package stats

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
)

// This file is the dynamic twin of renuca-lint's statsmerge analyzer. The
// analyzer proves statically that every exported numeric counter is read
// somewhere; MergeNumeric/SnapshotNumeric prove dynamically that a merge or
// report built on them cannot drop a counter, because reflection walks the
// struct — adding a field automatically adds it to every merge and
// snapshot. internal/stats's completeness test round-trips the simulator's
// Stats structs through both to pin the contract.

// MergeNumeric adds every exported numeric field of src into dst, where dst
// is a pointer to a struct and src a value (or pointer) of the same struct
// type. Nested structs merge recursively; slices and arrays of numeric or
// struct element type merge element-wise, with dst slices extended to
// src's length; maps with numeric values merge per key. Non-numeric fields
// (strings, bools) are copied from src only where dst still has the zero
// value, so identity fields like Policy survive a fold without being
// clobbered. Unexported fields are ignored.
func MergeNumeric(dst, src any) {
	dv := reflect.ValueOf(dst)
	if dv.Kind() != reflect.Pointer || dv.IsNil() || dv.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("stats: MergeNumeric dst must be non-nil *struct, got %T", dst))
	}
	sv := reflect.ValueOf(src)
	if sv.Kind() == reflect.Pointer {
		if sv.IsNil() {
			panic("stats: MergeNumeric src is a nil pointer")
		}
		sv = sv.Elem()
	}
	if sv.Type() != dv.Elem().Type() {
		panic(fmt.Sprintf("stats: MergeNumeric type mismatch: %s vs %s", dv.Elem().Type(), sv.Type()))
	}
	mergeValue(dv.Elem(), sv)
}

func mergeValue(dst, src reflect.Value) {
	switch dst.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		dst.SetInt(dst.Int() + src.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		dst.SetUint(dst.Uint() + src.Uint())
	case reflect.Float32, reflect.Float64:
		dst.SetFloat(dst.Float() + src.Float())
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			if dst.Type().Field(i).IsExported() {
				mergeValue(dst.Field(i), src.Field(i))
			}
		}
	case reflect.Slice:
		if src.Len() > dst.Len() {
			grown := reflect.MakeSlice(dst.Type(), src.Len(), src.Len())
			reflect.Copy(grown, dst)
			dst.Set(grown)
		}
		for i := 0; i < src.Len(); i++ {
			mergeValue(dst.Index(i), src.Index(i))
		}
	case reflect.Array:
		for i := 0; i < dst.Len(); i++ {
			mergeValue(dst.Index(i), src.Index(i))
		}
	case reflect.Map:
		if src.Len() == 0 {
			return
		}
		if dst.IsNil() {
			dst.Set(reflect.MakeMapWithSize(dst.Type(), src.Len()))
		}
		iter := src.MapRange()
		for iter.Next() {
			k, v := iter.Key(), iter.Value()
			acc := reflect.New(dst.Type().Elem()).Elem()
			if existing := dst.MapIndex(k); existing.IsValid() {
				acc.Set(existing)
			}
			mergeValue(acc, v)
			dst.SetMapIndex(k, acc)
		}
	case reflect.String, reflect.Bool:
		if dst.IsZero() {
			dst.Set(src)
		}
	case reflect.Pointer, reflect.Interface:
		// Reference fields carry identity, not counts; keep dst's.
	}
}

// SnapshotNumeric flattens every exported numeric field of a struct (or
// pointer to one) into a path -> value map: nested structs join with ".",
// slice/array elements with "[i]", numeric-valued map entries with "[key]".
// It is the reporting half of the counter-completeness contract: a counter
// missing from a snapshot is a counter missing from every report built on
// it.
func SnapshotNumeric(v any) map[string]float64 {
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			panic("stats: SnapshotNumeric of nil pointer")
		}
		rv = rv.Elem()
	}
	if rv.Kind() != reflect.Struct {
		panic(fmt.Sprintf("stats: SnapshotNumeric needs a struct, got %T", v))
	}
	out := make(map[string]float64)
	snapshotValue(out, "", rv)
	return out
}

func snapshotValue(out map[string]float64, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		out[path] = float64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		out[path] = float64(v.Uint())
	case reflect.Float32, reflect.Float64:
		out[path] = v.Float()
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			sub := f.Name
			if path != "" {
				sub = path + "." + f.Name
			}
			snapshotValue(out, sub, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			snapshotValue(out, path+"["+strconv.Itoa(i)+"]", v.Index(i))
		}
	case reflect.Map:
		iter := v.MapRange()
		for iter.Next() {
			snapshotValue(out, path+"["+fmt.Sprint(iter.Key().Interface())+"]", iter.Value())
		}
	}
}

// NumericFieldPaths returns the sorted snapshot paths of v — the
// enumerable surface of its counters.
func NumericFieldPaths(v any) []string {
	snap := SnapshotNumeric(v)
	paths := make([]string, 0, len(snap))
	for p := range snap {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}
