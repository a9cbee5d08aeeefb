// Package spec is the declarative front door to the repository: one
// Spec describes a complete experiment — network, workload,
// transmission model, and the algorithm to run (an offline engine
// scheduler or an online sim policy) — and Run executes it into a
// unified RunReport. SweepSpec crosses Spec axes (schedulers ×
// policies × topologies × workloads × loads × seeds × models) into a
// lazily-expanded grid whose cells stream back as they finish, so a
// 100k-cell sweep never materializes in memory.
//
// Specs are plain data: they round-trip through JSON byte-for-byte,
// which is what lets the same document drive the library (Run), the
// CLI (coflowsim -spec), and the HTTP service (coflowd POST /v1/run)
// to the same RunReport. Everything downstream of a Spec is
// deterministic in the Spec, so reports are cacheable by their spec.
// Run is the repository's one scheduling entry point: the root
// package, the CLI, and the service all build a Spec.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/coflow"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Spec declares one experiment. The zero value is not runnable —
// exactly one of Scheduler (offline) or Policy (online) must be set —
// but every other field has a default: an FB workload of 8 coflows on
// SWAN in the single path model. Normalized fills the defaults in and
// validates every name against the live registries.
type Spec struct {
	// Topology selects the network: "swan" (default), "gscale", or an
	// internal/topo generator spec such as "fat-tree:k=4". It is only
	// consulted when the instance is generated — an inline Instance or
	// a Workload.File carries its own graph, and combining those with
	// an explicit Topology is rejected as conflicting.
	Topology string `json:"topology,omitempty"`
	// Workload parameterizes instance generation (or names a file).
	// Nil means the default generated workload.
	Workload *Workload `json:"workload,omitempty"`
	// Instance is a fully inline problem instance (graph included),
	// mutually exclusive with Workload and Topology. It is what lets
	// library callers run an instance they built in memory without
	// touching disk.
	Instance *coflow.Instance `json:"instance,omitempty"`
	// Model is the transmission model: "single" (default), "free", or
	// "multi". Online runs require "single" — the model every ordering
	// policy shares.
	Model string `json:"model,omitempty"`
	// Scheduler names an offline engine scheduler ("stretch",
	// "heuristic", "terra", "jahanjou", "sincronia-greedy", …).
	// Exactly one of Scheduler and Policy must be set.
	Scheduler string `json:"scheduler,omitempty"`
	// Policy names an online sim policy ("fifo", "las", "fair",
	// "sincronia-online", "epoch:<scheduler>", …).
	Policy string `json:"policy,omitempty"`
	// Options tunes the run.
	Options Options `json:"options,omitempty"`
	// Validate replays the result through the independent
	// internal/validate oracle; any violation fails the run.
	Validate bool `json:"validate,omitempty"`
}

// Workload parameterizes the generated instance, mirroring
// workload.Config. Exactly one source applies: File when set,
// generation otherwise.
type Workload struct {
	// Kind is "bigbench", "tpcds", "tpch", or "fb" (default).
	Kind string `json:"kind,omitempty"`
	// Coflows is the generated coflow count (default 8).
	Coflows int `json:"coflows,omitempty"`
	// Seed drives generation (independent of Options.Seed, which
	// drives the algorithms).
	Seed int64 `json:"seed,omitempty"`
	// MeanInterarrival is the mean Poisson release gap in slots
	// (default 1.5 when Load is unset). Mutually exclusive with Load.
	MeanInterarrival float64 `json:"mean_interarrival,omitempty"`
	// Load is the arrival rate in coflows per slot — sugar for
	// MeanInterarrival = 1/Load, matching coflowsim -load.
	Load float64 `json:"load,omitempty"`
	// WeightMin/WeightMax bound the uniform weight draw (0,0 = the
	// paper's [1,100]; set both to 1 for unweighted runs).
	WeightMin float64 `json:"weight_min,omitempty"`
	WeightMax float64 `json:"weight_max,omitempty"`
	// File loads a coflow.Instance JSON written by WriteJSON /
	// coflowsim -gen instead of generating. The file's graph wins;
	// Topology must be empty.
	File string `json:"file,omitempty"`
}

// Options are the algorithm knobs of a run: the offline engine's
// (MaxSlots, Trials, Seed, Workers, DisableCompaction), the online
// simulator's (Epoch, Clairvoyant, CheckEvery, MaxEvents, WarmLP;
// rejected on offline runs), instance generation's PathsK, and the
// Telemetry switch. Offline runs ignore the sim-only fields and vice
// versa.
type Options struct {
	// MaxSlots caps the uniform time grid (0 = 48).
	MaxSlots int `json:"max_slots,omitempty"`
	// Trials is the randomized Stretch rounding count (0 = the
	// engine's 20 offline, the simulator's 5 online; negative
	// disables).
	Trials int `json:"trials,omitempty"`
	// Seed drives all algorithm randomness deterministically.
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds goroutines inside the run (≤ 0 = GOMAXPROCS).
	// Results never depend on the worker count.
	Workers int `json:"workers,omitempty"`
	// DisableCompaction turns off the Section 6.1 idle-slot pass.
	DisableCompaction bool `json:"disable_compaction,omitempty"`
	// Epoch is the online re-planning period (0 = arrivals only).
	Epoch float64 `json:"epoch,omitempty"`
	// Clairvoyant reveals every coflow to the online policy at t=0.
	Clairvoyant bool `json:"clairvoyant,omitempty"`
	// CheckEvery enables the simulator's from-scratch verification
	// every CheckEvery-th event (0 = off).
	CheckEvery int `json:"check_every,omitempty"`
	// MaxEvents caps the simulator event loop (0 = 1<<20).
	MaxEvents int `json:"max_events,omitempty"`
	// WarmLP has no effect: every "epoch:<lp-scheduler>" re-plan
	// already starts from its residual's greedy vertex. It is still
	// accepted, and still rejected on offline runs, so existing
	// documents keep their meaning.
	WarmLP bool `json:"warm_lp,omitempty"`
	// PathsK is the candidate path count per flow for the multi path
	// model on generated instances (0 = 3).
	PathsK int `json:"paths_k,omitempty"`
	// Telemetry attaches an obs.Snapshot of the run's internal counters
	// (simplex pivots, sim events, per-stage timings, …) to the
	// RunReport. Purely observational: the scheduling results are
	// bit-identical with telemetry on or off.
	Telemetry bool `json:"telemetry,omitempty"`
}

// Defaults Normalized fills in for unset fields.
const (
	DefaultTopology         = "swan"
	DefaultKind             = "fb"
	DefaultCoflows          = 8
	DefaultMeanInterarrival = 1.5
	DefaultPathsK           = 3
)

// Normalized returns a copy with every default filled in, after
// validating the spec: exactly one of Scheduler/Policy, registry
// membership of every name (errors list the registry, like coflowsim's
// upfront validation), model support, finite numeric fields, and
// conflict-free instance sourcing. The normalized spec is what Run
// executes and what reports echo, so two specs that normalize
// identically produce identical runs.
func (s Spec) Normalized() (Spec, error) {
	if s.Scheduler != "" && s.Policy != "" {
		return s, fmt.Errorf("spec: conflicting offline and online runs: scheduler %q and policy %q are mutually exclusive", s.Scheduler, s.Policy)
	}
	if s.Scheduler == "" && s.Policy == "" {
		return s, fmt.Errorf("spec: nothing to run: set scheduler (offline: %v) or policy (online: %v)", SchedulerNames(), sim.Names())
	}

	// Model.
	if s.Model == "" {
		s.Model = ModelSingle
	}
	s.Model = strings.ToLower(s.Model)
	mode, err := ParseModel(s.Model)
	if err != nil {
		return s, err
	}
	if s.Policy != "" && mode != coflow.SinglePath {
		return s, fmt.Errorf("spec: online policies simulate the single path model; model %q is not supported", s.Model)
	}

	// Algorithm names, against the live registries.
	if s.Scheduler != "" {
		if err := CheckScheduler(s.Scheduler, mode); err != nil {
			return s, err
		}
	}
	if s.Policy != "" {
		if err := CheckPolicy(s.Policy); err != nil {
			return s, err
		}
	}

	// Instance sourcing: inline instance, file, or generation.
	inline := s.Instance != nil
	file := s.Workload != nil && s.Workload.File != ""
	if inline && s.Workload != nil {
		return s, fmt.Errorf("spec: instance and workload are mutually exclusive (the inline instance already fixes the coflows)")
	}
	if (inline || file) && s.Topology != "" {
		return s, fmt.Errorf("spec: topology %q conflicts with an inline or file instance, which carries its own graph", s.Topology)
	}
	if !inline {
		if s.Workload == nil {
			s.Workload = &Workload{}
		} else { // don't alias the caller's struct
			w := *s.Workload
			s.Workload = &w
		}
		w := s.Workload
		if file {
			if w.Kind != "" || w.Coflows != 0 || w.Load != 0 || w.MeanInterarrival != 0 || w.WeightMin != 0 || w.WeightMax != 0 {
				return s, fmt.Errorf("spec: workload file %q conflicts with generation parameters; set one or the other", w.File)
			}
		} else {
			if w.Kind == "" {
				w.Kind = DefaultKind
			}
			w.Kind = strings.ToLower(w.Kind)
			if _, err := ParseKind(w.Kind); err != nil {
				return s, err
			}
			if w.Coflows == 0 {
				w.Coflows = DefaultCoflows
			}
			if w.Coflows < 0 {
				return s, fmt.Errorf("spec: workload coflows = %d", w.Coflows)
			}
			if w.Load != 0 && w.MeanInterarrival != 0 {
				return s, fmt.Errorf("spec: workload load and mean_interarrival are two spellings of the same rate; set one")
			}
			for _, f := range []struct {
				name string
				v    float64
			}{
				{"load", w.Load},
				{"mean_interarrival", w.MeanInterarrival},
				{"weight_min", w.WeightMin},
				{"weight_max", w.WeightMax},
			} {
				if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
					return s, fmt.Errorf("spec: workload %s = %g is not finite", f.name, f.v)
				}
			}
			if w.Load < 0 {
				return s, fmt.Errorf("spec: workload load = %g", w.Load)
			}
			if w.Load > 0 {
				w.MeanInterarrival = 1 / w.Load
				w.Load = 0
			}
			if w.MeanInterarrival == 0 {
				w.MeanInterarrival = DefaultMeanInterarrival
			}
			if s.Topology == "" {
				s.Topology = DefaultTopology
			}
			// The topology must parse and expose ≥ 2 endpoints before
			// any cell work starts (same upfront check as the CLI).
			if _, err := ParseTopology(s.Topology); err != nil {
				return s, err
			}
		}
	}

	if math.IsNaN(s.Options.Epoch) || math.IsInf(s.Options.Epoch, 0) || s.Options.Epoch < 0 {
		return s, fmt.Errorf("spec: options epoch = %g", s.Options.Epoch)
	}
	if s.Policy == "" && (s.Options.Epoch != 0 || s.Options.Clairvoyant || s.Options.CheckEvery != 0 || s.Options.MaxEvents != 0 || s.Options.WarmLP) {
		return s, fmt.Errorf("spec: epoch/clairvoyant/check_every/max_events/warm_lp are online options; scheduler %q is offline", s.Scheduler)
	}
	if s.Options.PathsK == 0 {
		s.Options.PathsK = DefaultPathsK
	}
	if s.Options.PathsK < 1 {
		return s, fmt.Errorf("spec: options paths_k = %d", s.Options.PathsK)
	}
	return s, nil
}

// Check reports whether the spec normalizes cleanly (the Validate
// field keeps the name "Validate" for the oracle replay switch).
func (s Spec) Check() error {
	_, err := s.Normalized()
	return err
}

// Key is the canonical JSON of the normalized spec — the cache key
// coflowd uses. Two specs with equal Keys produce identical
// RunReports (everything downstream is deterministic). Options.Workers
// is normalized out: results are worker-invariant by contract, so an
// execution knob must not fragment the cache.
func (s Spec) Key() (string, error) {
	n, err := s.Normalized()
	if err != nil {
		return "", err
	}
	n.Options.Workers = 0
	b, err := json.Marshal(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Parse decodes a JSON document into either a Spec or a SweepSpec.
// Sweeps are recognized by their envelope fields ("base" or any axis
// list); everything else must be a Spec. Unknown fields are rejected
// in both cases, so a typo fails loudly instead of silently running
// the default experiment.
func Parse(data []byte) (*Spec, *SweepSpec, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, nil, fmt.Errorf("spec: %w", err)
	}
	sweep := false
	for _, k := range []string{"base", "schedulers", "policies", "models", "topologies", "workloads", "loads", "seeds"} {
		if _, ok := probe[k]; ok {
			sweep = true
			break
		}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if sweep {
		var sw SweepSpec
		if err := dec.Decode(&sw); err != nil {
			return nil, nil, fmt.Errorf("spec: sweep: %w", err)
		}
		return nil, &sw, nil
	}
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, nil, fmt.Errorf("spec: %w", err)
	}
	return &s, nil, nil
}

// Materialize normalizes the spec and builds the problem instance it
// would run on, without running anything — for harnesses that share
// one instance across several algorithms (the CLI's online comparison
// table) or want to inspect what a spec generates.
func (s Spec) Materialize() (*coflow.Instance, error) {
	ns, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	return ns.instance()
}

// instance materializes the spec's problem instance: inline, from
// file, or generated on the resolved topology. Generated single path
// instances carry random shortest paths, multi path ones a k-shortest
// candidate set; free path instances stay unrouted. The spec must be
// normalized.
func (s *Spec) instance() (*coflow.Instance, error) {
	if s.Instance != nil {
		return s.Instance, nil
	}
	w := s.Workload
	if w.File != "" {
		f, err := os.Open(w.File)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return coflow.ReadJSON(f)
	}
	kind, err := ParseKind(w.Kind)
	if err != nil {
		return nil, err
	}
	top, err := ParseTopology(s.Topology)
	if err != nil {
		return nil, err
	}
	mode, err := ParseModel(s.Model)
	if err != nil {
		return nil, err
	}
	in, err := workload.Generate(workload.Config{
		Kind:             kind,
		Graph:            top.Graph,
		NumCoflows:       w.Coflows,
		Seed:             w.Seed,
		MeanInterarrival: w.MeanInterarrival,
		WeightMin:        w.WeightMin,
		WeightMax:        w.WeightMax,
		AssignPaths:      mode == coflow.SinglePath || s.Policy != "",
		Endpoints:        top.Endpoints,
	})
	if err != nil {
		return nil, err
	}
	if mode == coflow.MultiPath {
		if err := in.AssignKShortestPaths(s.Options.PathsK); err != nil {
			return nil, err
		}
	}
	return in, nil
}
