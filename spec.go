package repro

import (
	"context"
	"iter"

	"repro/internal/obs"
	"repro/internal/spec"
)

// The declarative front door (internal/spec): one Spec describes an
// experiment — topology, workload, transmission model, and the
// algorithm (offline scheduler or online policy) — and Run executes
// it into a unified RunReport. SweepSpec crosses Spec axes into a
// grid whose cells stream back as they finish. The same JSON document
// drives the library (Run), the CLI (coflowsim -spec), and the HTTP
// service (coflowd POST /v1/run) to the same report.
type (
	// Spec declares one experiment. See internal/spec for field docs;
	// zero-value fields default to an FB workload of 8 coflows on SWAN
	// in the single path model.
	Spec = spec.Spec
	// SpecWorkload parameterizes Spec instance generation (or names an
	// instance file).
	SpecWorkload = spec.Workload
	// SpecOptions are the algorithm knobs of a Spec: offline grid,
	// trials, seed, and workers; the online-only epoch, clairvoyance,
	// checking, event cap, and warm LP; multi path candidate count; and
	// telemetry. See internal/spec for field docs.
	SpecOptions = spec.Options
	// SweepSpec crosses a base Spec with axis lists (schedulers ×
	// policies × models × topologies × workloads × loads × seeds).
	SweepSpec = spec.SweepSpec
	// SweepCell is one streamed sweep result: index, cell spec, and
	// report or per-cell error.
	SweepCell = spec.Cell
	// Telemetry is the zero-dependency metrics registry (internal/obs)
	// that RunWith threads through the engine, the simulator, and the
	// simplex solver. Recording is atomic and safe to share across
	// concurrent runs; a nil *Telemetry disables recording at zero cost.
	Telemetry = obs.Registry
	// TelemetrySnapshot is a point-in-time copy of a Telemetry registry,
	// JSON-serializable (RunReport.Telemetry, coflowsim -stats).
	TelemetrySnapshot = obs.Snapshot
)

// NewTelemetry returns an empty telemetry registry for RunWith.
func NewTelemetry() *Telemetry { return obs.NewRegistry() }

// Run executes one Spec and returns its unified report. It is
// deterministic in the normalized Spec at any Options.Workers, and
// ctx cancels it between units of work. Exactly one of Spec.Scheduler
// (offline) and Spec.Policy (online) must be set; every name is
// validated against the live registries before any work runs, with
// errors listing what exists.
func Run(ctx context.Context, s Spec) (*RunReport, error) { return spec.Run(ctx, s) }

// RunWith is Run recording telemetry into reg (see Telemetry). A nil
// reg with Options.Telemetry set gets a private registry whose
// snapshot lands in RunReport.Telemetry; scheduling output is
// bit-identical with or without a registry.
func RunWith(ctx context.Context, s Spec, reg *Telemetry) (*RunReport, error) {
	return spec.RunWith(ctx, s, reg)
}

// Sweep validates sw and streams its cells as they finish, fanned
// over a bounded worker pool. The grid is expanded lazily from cell
// indices — a 100k-cell sweep holds O(workers) results in memory, not
// O(cells) — and per-cell errors stream back without aborting the
// rest. Breaking out of the range (or cancelling ctx) stops
// scheduling new cells. The returned int is the total cell count.
func Sweep(ctx context.Context, sw SweepSpec) (int, iter.Seq2[int, *SweepCell], error) {
	return spec.Sweep(ctx, sw)
}

// ParseSpec decodes a JSON document into a Spec or a SweepSpec
// (exactly one of the two results is non-nil). Sweeps are recognized
// by their envelope fields ("base" or any axis list); unknown fields
// are rejected so typos fail loudly.
func ParseSpec(data []byte) (*Spec, *SweepSpec, error) { return spec.Parse(data) }

// SweepPresets lists the named sweeps shipped with the repository
// (the paper's figure grids: "figure9", "figure10", "figure-o1",
// "figure-t1").
func SweepPresets() []string { return spec.PresetNames() }

// SweepPreset returns the named sweep; unknown names list the
// registry.
func SweepPreset(name string) (SweepSpec, error) { return spec.Preset(name) }
