package core

import (
	"reflect"
	"testing"
)

// nonDefault gives every exported Options field a valid value that differs
// from both DefaultOptions and tinyOptions. The plumbing tests range over
// Options by reflection, so a new field without an entry here fails by name
// until it has one, and is then checked like the others.
var nonDefault = map[string]any{
	"Policy":                  SNUCA,
	"Apps":                    StandardWorkloads()[1].Apps,
	"InstrPerCore":            uint64(4000),
	"Warmup":                  uint64(1000),
	"Seed":                    uint64(2),
	"L2Bytes":                 uint64(128 << 10),
	"L3BankBytes":             uint64(1 << 20),
	"ROBEntries":              168,
	"CriticalityThresholdPct": 25.0,
	"IntraBankWL":             true,
	"ReRAMWriteLatency":       uint32(250),
}

// optionFields lists the exported Options field names in declaration order.
func optionFields() []string {
	var names []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Options{})) {
		if f.IsExported() {
			names = append(names, f.Name)
		}
	}
	return names
}

// withField returns o with the named field set to its nonDefault value.
func withField(t *testing.T, o Options, name string) Options {
	t.Helper()
	v, ok := nonDefault[name]
	if !ok {
		t.Fatalf("Options.%s has no nonDefault entry: add one so the plumbing tests cover it", name)
	}
	f, rv := reflect.ValueOf(&o).Elem().FieldByName(name), reflect.ValueOf(v)
	if rv.Type() != f.Type() {
		t.Fatalf("nonDefault[%q] is a %s, want %s", name, rv.Type(), f.Type())
	}
	f.Set(rv)
	return o
}

// TestEveryOptionReachesTheSimulator changes one Options field at a time
// and requires the change to reach the simulator: the sim.Config that
// config builds must differ, or, for the fields Run consumes itself (the
// apps through their trace profiles, the windows through RunMeasured), the
// run's result must.
func TestEveryOptionReachesTheSimulator(t *testing.T) {
	runOnly := map[string]bool{"Apps": true, "InstrPerCore": true, "Warmup": true}
	base := tinyOptions(ReNUCA)
	base.Apps = apps16()
	baseCfg, err := config(base)
	if err != nil {
		t.Fatal(err)
	}
	baseRep, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := Run(base); err != nil || !reflect.DeepEqual(again.Result, baseRep.Result) {
		t.Fatalf("two runs of one Options differ (err %v): the comparisons below would be vacuous", err)
	}

	for _, name := range optionFields() {
		o := withField(t, base, name)
		if reflect.DeepEqual(o, base) {
			t.Fatalf("nonDefault[%q] equals the base's value", name)
		}
		if runOnly[name] {
			rep, err := Run(o)
			if err != nil {
				t.Fatalf("Options.%s: %v", name, err)
			}
			if reflect.DeepEqual(rep.Result, baseRep.Result) {
				t.Errorf("Options.%s does not change the run's result: dead knob or missing plumbing", name)
			}
			continue
		}
		cfg, err := config(o)
		if err != nil {
			t.Fatalf("Options.%s: %v", name, err)
		}
		if reflect.DeepEqual(cfg, baseCfg) {
			t.Errorf("Options.%s does not change the sim.Config that config builds: dead knob or missing plumbing", name)
		}
	}
}

// TestSuiteUnitsCopyOptionsWhole builds a base with every field
// non-default and requires each unit SuiteUnits makes to carry all of it
// but the two fields it sets per workload (Apps and Seed). A unit whose
// Options were rebuilt field by field would run the fields it forgot at
// their zero values.
func TestSuiteUnitsCopyOptionsWhole(t *testing.T) {
	base := DefaultOptions(ReNUCA)
	for _, name := range optionFields() {
		base = withField(t, base, name)
	}
	bv := reflect.ValueOf(base)
	for _, u := range SuiteUnits("p", base, StandardWorkloads()[:2]) {
		uv := reflect.ValueOf(u.Opts)
		for _, name := range optionFields() {
			if name == "Apps" || name == "Seed" {
				continue
			}
			got, want := uv.FieldByName(name).Interface(), bv.FieldByName(name).Interface()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("unit %s: Options.%s = %v, want the base's %v", u.ID, name, got, want)
			}
		}
	}
}
