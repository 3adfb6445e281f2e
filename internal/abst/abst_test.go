package abst

import (
	"context"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"pmove/internal/tsdb"
)

func TestParseConfigPaperGrammar(t *testing.T) {
	src := `# comment
[skl | skx]
RAPL_ENERGY_PKG: RAPL_ENERGY_PKG
TOTAL_MEMORY_OPERATIONS: MEM_INST_RETIRED:ALL_LOADS + MEM_INST_RETIRED:ALL_STORES
WEIGHTED: EV_A * 2 + EV_B / 4 - 1
`
	cfg, err := ParseConfig(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PMU != "skl" || len(cfg.Aliases) != 1 || cfg.Aliases[0] != "skx" {
		t.Errorf("header: %q %v", cfg.PMU, cfg.Aliases)
	}
	if g := cfg.Generics(); len(g) != 3 {
		t.Errorf("generics: %v", g)
	}
	f, ok := cfg.Formula("TOTAL_MEMORY_OPERATIONS")
	if !ok {
		t.Fatal("mapping missing")
	}
	want := []string{"MEM_INST_RETIRED:ALL_LOADS", "+", "MEM_INST_RETIRED:ALL_STORES"}
	got := f.Strings()
	if len(got) != len(want) {
		t.Fatalf("tokens: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: %q want %q", i, got[i], want[i])
		}
	}
}

func TestParseConfigErrors(t *testing.T) {
	bad := []string{
		``,
		`EVENT: X`,             // mapping before header
		"[pmu\nE: X",           // unterminated header
		"[p]\nE X",             // missing colon
		"[p]\nE:",              // empty formula
		"[p]\nE: X +",          // dangling operator
		"[p]\nE: + X",          // leading operator
		"[p]\nE: X Y",          // two operands
		"[p]\nE: X\nE: Y",      // duplicate generic
		"[p]\nE: X\n[q]\nF: Y", // multiple headers
		"[]\nE: X",             // empty pmu name
		"[p]\n: X",             // empty generic
	}
	for _, src := range bad {
		if _, err := ParseConfig(strings.NewReader(src)); err == nil {
			t.Errorf("accepted bad config %q", src)
		}
	}
}

func TestEvalPrecedence(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(
		"[p]\nFLOPS: S + A * 2 + B * 4 - C / 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := cfg.Formula("FLOPS")
	vals := map[string]float64{"S": 1, "A": 10, "B": 100, "C": 8}
	got, err := f.Eval(func(ev string) (float64, error) { return vals[ev], nil })
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 + 10*2 + 100*4 - 8.0/2 // 417
	if got != want {
		t.Errorf("eval = %v, want %v", got, want)
	}
}

func TestEvalDivisionByZero(t *testing.T) {
	cfg, _ := ParseConfig(strings.NewReader("[p]\nR: A / B\n"))
	f, _ := cfg.Formula("R")
	_, err := f.Eval(func(string) (float64, error) { return 0, nil })
	if err == nil {
		t.Fatal("division by zero not reported")
	}
}

func TestEvalPropagatesReadErrors(t *testing.T) {
	cfg, _ := ParseConfig(strings.NewReader("[p]\nR: A + B\n"))
	f, _ := cfg.Formula("R")
	sentinel := errors.New("counter offline")
	_, err := f.Eval(func(ev string) (float64, error) {
		if ev == "B" {
			return 0, sentinel
		}
		return 1, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("read error not propagated: %v", err)
	}
}

func TestFormulaEvents(t *testing.T) {
	cfg, _ := ParseConfig(strings.NewReader("[p]\nR: A + B * 2 + A\n"))
	f, _ := cfg.Formula("R")
	evs := f.Events()
	if len(evs) != 2 || evs[0] != "A" || evs[1] != "B" {
		t.Errorf("events = %v (constants excluded, dedup'd, sorted)", evs)
	}
}

func TestDefaultRegistryTableI(t *testing.T) {
	reg, err := DefaultRegistry()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's example call:
	// pmu_utils.get("skl", "TOTAL_MEMORY_OPERATIONS").
	toks, err := reg.Get("skl", GenericTotalMemOps)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"MEM_INST_RETIRED:ALL_LOADS", "+", "MEM_INST_RETIRED:ALL_STORES"}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("get = %v, want %v", toks, want)
		}
	}
	// Zen3 maps the same generic differently (Table I).
	toksAMD, err := reg.Get("zen3", GenericTotalMemOps)
	if err != nil {
		t.Fatal(err)
	}
	if toksAMD[0] != "LS_DISPATCH:STORE_DISPATCH" {
		t.Errorf("zen3 mapping: %v", toksAMD)
	}
	// L3_HIT is AMD-exclusive.
	if reg.Supports("cascade", GenericL3Hit) {
		t.Error("Intel Cascade should not support L3_HIT (Table I: Not Supported)")
	}
	if !reg.Supports("zen3", GenericL3Hit) {
		t.Error("Zen3 should support L3_HIT")
	}
	// Case-insensitive PMU names.
	if _, err := reg.Get("SKX", GenericEnergy); err != nil {
		t.Error("PMU lookup should be case-insensitive")
	}
	// Unknown lookups.
	if _, err := reg.Get("pdp11", GenericEnergy); err == nil {
		t.Error("unknown pmu accepted")
	}
	if _, err := reg.Get("skx", "NO_SUCH_GENERIC"); err == nil {
		t.Error("unknown generic accepted")
	}
}

func TestRegistryHardwareEvents(t *testing.T) {
	reg, _ := DefaultRegistry()
	evs, err := reg.HardwareEvents("cascade", []string{GenericTotalMemOps, GenericInstructions})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Errorf("events = %v", evs)
	}
}

func TestRegistryDuplicateRegistration(t *testing.T) {
	reg := NewRegistry()
	cfg, _ := ParseConfig(strings.NewReader("[p]\nE: X\n"))
	if err := reg.Register(cfg); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(cfg); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestBuiltinConfigsMatchCatalogs(t *testing.T) {
	reg, _ := DefaultRegistry()
	_ = reg
	intelCfg, err := ParseConfig(strings.NewReader(builtinConfigs["intel"]))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateAgainstCatalog(intelCfg, "skx"); err != nil {
		t.Errorf("intel config references unknown events: %v", err)
	}
	amdCfg, err := ParseConfig(strings.NewReader(builtinConfigs["amd"]))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateAgainstCatalog(amdCfg, "zen3"); err != nil {
		t.Errorf("amd config references unknown events: %v", err)
	}
	// Cross-vendor validation must fail.
	if err := ValidateAgainstCatalog(amdCfg, "skx"); err == nil {
		t.Error("amd config validated against an Intel catalog")
	}
}

func TestFlopsDoubleFormula(t *testing.T) {
	reg, _ := DefaultRegistry()
	f, err := reg.Lookup("skx", GenericFlopsDouble)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]float64{
		"FP_ARITH:SCALAR_DOUBLE":      1000,
		"FP_ARITH:128B_PACKED_DOUBLE": 100,
		"FP_ARITH:256B_PACKED_DOUBLE": 10,
		"FP_ARITH:512B_PACKED_DOUBLE": 1,
	}
	got, err := f.Eval(func(ev string) (float64, error) { return counts[ev], nil })
	if err != nil {
		t.Fatal(err)
	}
	want := 1000 + 2*100.0 + 4*10.0 + 8*1.0
	if got != want {
		t.Errorf("FLOPS_DOUBLE = %v, want %v", got, want)
	}
}

func TestFormulaRoundTripProperty(t *testing.T) {
	// Any parsed formula's Strings() re-parses to the same token list.
	f := func(a, b uint8) bool {
		src := "[p]\nG: EV_A + EV_B * 2\n"
		cfg, err := ParseConfig(strings.NewReader(src))
		if err != nil {
			return false
		}
		fo, _ := cfg.Formula("G")
		re, err := parseFormula("G", strings.Join(fo.Strings(), " "))
		if err != nil {
			return false
		}
		va, vb := float64(a), float64(b)
		read := func(ev string) (float64, error) {
			if ev == "EV_A" {
				return va, nil
			}
			return vb, nil
		}
		x, err1 := fo.Eval(read)
		y, err2 := re.Eval(read)
		return err1 == nil && err2 == nil && x == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalOverTSDB(t *testing.T) {
	db := tsdb.New()
	tag := "obs-eval"
	write := func(meas string, cpu0, cpu1 float64, ts int64) {
		if err := db.WriteBatchContext(context.Background(), []tsdb.Point{{
			Measurement: meas,
			Tags:        map[string]string{"tag": tag},
			Fields:      map[string]float64{"_cpu0": cpu0, "_cpu1": cpu1},
			Time:        ts,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	// Cumulative counters over two samples for both Table I operands.
	write("perfevent_hwcounters_MEM_INST_RETIRED_ALL_LOADS", 50, 70, 1)
	write("perfevent_hwcounters_MEM_INST_RETIRED_ALL_LOADS", 100, 140, 2)
	write("perfevent_hwcounters_MEM_INST_RETIRED_ALL_STORES", 10, 20, 1)
	write("perfevent_hwcounters_MEM_INST_RETIRED_ALL_STORES", 30, 50, 2)

	reg, err := DefaultRegistry()
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvalOverTSDB(db, reg, "cascade", GenericTotalMemOps, tag, []string{"_cpu0", "_cpu1"})
	if err != nil {
		t.Fatal(err)
	}
	// Final loads 100+140=240, final stores 30+50=80 => 320.
	if got != 320 {
		t.Errorf("TOTAL_MEMORY_OPERATIONS = %v, want 320", got)
	}
	// Missing telemetry surfaces as an error, not zero.
	if _, err := EvalOverTSDB(db, reg, "cascade", GenericL1DataMiss, tag, nil); err == nil {
		t.Error("missing measurement should error")
	}
	// Unknown generic.
	if _, err := EvalOverTSDB(db, reg, "cascade", "NOPE", tag, nil); err == nil {
		t.Error("unknown generic accepted")
	}
}
