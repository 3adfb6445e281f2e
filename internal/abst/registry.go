package abst

import (
	"fmt"
	"sort"
	"strings"

	"pmove/internal/pmu"
)

// Registry holds the registered configuration files and answers
// pmu_utils.get-style lookups: "Upon registering the desired configuration
// files within P-MoVE, the application proceeds to configure the PCP of
// the target system using the registered configuration files when needed."
type Registry struct {
	byPMU map[string]*Config
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byPMU: map[string]*Config{}} }

// Register installs a config under its PMU name and all aliases.
func (r *Registry) Register(cfg *Config) error {
	names := append([]string{cfg.PMU}, cfg.Aliases...)
	for _, n := range names {
		key := strings.ToLower(n)
		if _, dup := r.byPMU[key]; dup {
			return fmt.Errorf("abst: pmu %q already registered", n)
		}
	}
	for _, n := range names {
		r.byPMU[strings.ToLower(n)] = cfg
	}
	return nil
}

// Get is the paper's pmu_utils.get(HW_PMU_NAME, COMMON_EVENT_NAME): it
// returns the formula token list for a generic event on a PMU, e.g.
//
//	Get("skl", "TOTAL_MEMORY_OPERATIONS") ->
//	  ["MEM_INST_RETIRED:ALL_LOADS", "+", "MEM_INST_RETIRED:ALL_STORES"]
func (r *Registry) Get(pmuName, genericEvent string) ([]string, error) {
	f, err := r.Lookup(pmuName, genericEvent)
	if err != nil {
		return nil, err
	}
	return f.Strings(), nil
}

// Lookup returns the parsed formula.
func (r *Registry) Lookup(pmuName, genericEvent string) (*Formula, error) {
	cfg, ok := r.byPMU[strings.ToLower(pmuName)]
	if !ok {
		return nil, fmt.Errorf("abst: no configuration registered for pmu %q", pmuName)
	}
	f, ok := cfg.Formula(genericEvent)
	if !ok {
		return nil, fmt.Errorf("abst: pmu %q has no mapping for generic event %q", pmuName, genericEvent)
	}
	return f, nil
}

// Supports reports whether a generic event is mapped on a PMU.
func (r *Registry) Supports(pmuName, genericEvent string) bool {
	_, err := r.Lookup(pmuName, genericEvent)
	return err == nil
}

// HardwareEvents returns the union of hardware events needed to evaluate
// the given generic events on a PMU — what the daemon programs before an
// observation.
func (r *Registry) HardwareEvents(pmuName string, generics []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	for _, g := range generics {
		f, err := r.Lookup(pmuName, g)
		if err != nil {
			return nil, err
		}
		for _, ev := range f.Events() {
			if !seen[ev] {
				seen[ev] = true
				out = append(out, ev)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// builtinConfigs are the Table I mappings (and the further events P-MoVE's
// CARM needs), expressed in the paper's config-file syntax.
var builtinConfigs = map[string]string{
	// Intel Skylake-X / Cascade Lake / Ice Lake share event names; skl is
	// the alias the paper's example uses.
	"intel": `[skx | skl | icl | cascade]
RAPL_ENERGY_PKG: RAPL_ENERGY_PKG
TOTAL_MEMORY_OPERATIONS: MEM_INST_RETIRED:ALL_LOADS + MEM_INST_RETIRED:ALL_STORES
L1_CACHE_DATA_MISS: L1D:REPLACEMENT
FP_DIV_RETIRED: ARITH:DIVIDER_ACTIVE
INSTRUCTIONS_RETIRED: INSTRUCTION_RETIRED
CPU_CYCLES: UNHALTED_CORE_CYCLES
SCALAR_DOUBLE_INSTRUCTIONS: FP_ARITH:SCALAR_DOUBLE
AVX512_DOUBLE_INSTRUCTIONS: FP_ARITH:512B_PACKED_DOUBLE
FLOPS_DOUBLE: FP_ARITH:SCALAR_DOUBLE + FP_ARITH:128B_PACKED_DOUBLE * 2 + FP_ARITH:256B_PACKED_DOUBLE * 4 + FP_ARITH:512B_PACKED_DOUBLE * 8
`,
	// AMD Zen3: same generic events, different formulas; L3_HIT is the
	// Table I example of an event Intel lacks.
	"amd": `[zen3]
RAPL_ENERGY_PKG: RAPL_ENERGY_PKG
TOTAL_MEMORY_OPERATIONS: LS_DISPATCH:STORE_DISPATCH + LS_DISPATCH:LD_DISPATCH
L1_CACHE_DATA_MISS: L1_DC_MISSES
FP_DIV_RETIRED: DIV_OP_COUNT
L3_HIT: LONGEST_LAT_CACHE:RETIRED - LONGEST_LAT_CACHE:MISS
INSTRUCTIONS_RETIRED: RETIRED_INSTRUCTIONS
CPU_CYCLES: CYCLES_NOT_IN_HALT
FLOPS_DOUBLE: RETIRED_SSE_AVX_FLOPS:ANY
`,
}

// DefaultRegistry returns a registry pre-loaded with the built-in Intel
// and AMD configurations of Table I.
func DefaultRegistry() (*Registry, error) {
	r := NewRegistry()
	for name, text := range builtinConfigs {
		cfg, err := ParseConfig(strings.NewReader(text))
		if err != nil {
			return nil, fmt.Errorf("abst: builtin %s: %w", name, err)
		}
		if err := r.Register(cfg); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// ValidateAgainstCatalog checks every hardware event referenced by a PMU's
// formulas exists in that microarchitecture's event catalog — run at
// registration time in the daemon so bad configs fail fast.
func ValidateAgainstCatalog(cfg *Config, microarch string) error {
	cat, err := pmu.CatalogFor(microarch)
	if err != nil {
		return err
	}
	for _, g := range cfg.Generics() {
		f, _ := cfg.Formula(g)
		for _, ev := range f.Events() {
			if _, ok := cat.Lookup(ev); !ok {
				return fmt.Errorf("abst: %s maps %s to unknown %s event %q", cfg.PMU, g, microarch, ev)
			}
		}
	}
	return nil
}
