// Package coflow defines the coflow scheduling problem types from
// Section 2 of the paper: flows (source, sink, demand, optional fixed
// path), coflows (weighted groups of flows with release times), and
// instances (a capacitated network plus a set of coflows). It also
// provides validation, instance statistics, and JSON serialization so
// instances can be generated once and replayed.
package coflow

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Model selects the transmission model of Section 2.
type Model int

const (
	// SinglePath routes each flow along its fixed path (the
	// "circuit-based coflows with paths given" model).
	SinglePath Model = iota
	// FreePath routes each flow as an arbitrary multi-commodity flow
	// (the Terra model): data may split and merge at nodes.
	FreePath
	// MultiPath is the intermediate model sketched in Section 2 of
	// the paper: each flow carries a fixed set of candidate paths
	// (Flow.AltPaths) and the scheduler picks per-slot rates on each.
	MultiPath
)

// String names the model.
func (m Model) String() string {
	switch m {
	case SinglePath:
		return "single-path"
	case FreePath:
		return "free-path"
	case MultiPath:
		return "multi-path"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// Flow is a single data transfer demand within a coflow.
type Flow struct {
	Source graph.NodeID
	Sink   graph.NodeID
	Demand float64 // data volume, in capacity·time units
	// Path is the fixed route in the single path model (edge ids).
	// Ignored in the free path model.
	Path []graph.EdgeID
	// AltPaths is the candidate path set for the multi path model
	// (Section 2's intermediate model): the flow may use any of these
	// routes concurrently, at rates the scheduler chooses.
	AltPaths [][]graph.EdgeID
	// Release is an optional per-flow release time; the effective
	// release of a flow is max(coflow release, flow release).
	Release float64
}

// Coflow is a weighted group of flows that completes when all its
// flows complete (Section 2).
type Coflow struct {
	ID      int
	Weight  float64
	Release float64
	Flows   []Flow
}

// EffectiveRelease returns the release time of flow i within c.
func (c *Coflow) EffectiveRelease(i int) float64 {
	return math.Max(c.Release, c.Flows[i].Release)
}

// TotalDemand sums the demands of the coflow's flows.
func (c *Coflow) TotalDemand() float64 {
	var s float64
	for _, f := range c.Flows {
		s += f.Demand
	}
	return s
}

// Instance is a complete coflow scheduling problem.
type Instance struct {
	Graph   *graph.Graph
	Coflows []Coflow
}

// FlowRef identifies flow Flow of coflow Coflow (both positional
// indices into the instance).
type FlowRef struct {
	Coflow, Flow int
}

// FlattenFlows lists every flow in the instance in deterministic
// (coflow, flow) order. The returned order is the flat flow indexing
// used by the LP builders and schedules.
func (in *Instance) FlattenFlows() []FlowRef {
	refs := make([]FlowRef, 0, in.NumFlows())
	for ci := range in.Coflows {
		for fi := range in.Coflows[ci].Flows {
			refs = append(refs, FlowRef{Coflow: ci, Flow: fi})
		}
	}
	return refs
}

// FlowAt returns the flow referenced by r.
func (in *Instance) FlowAt(r FlowRef) *Flow {
	return &in.Coflows[r.Coflow].Flows[r.Flow]
}

// ReleaseAt returns the effective release time of the flow referenced
// by r.
func (in *Instance) ReleaseAt(r FlowRef) float64 {
	return in.Coflows[r.Coflow].EffectiveRelease(r.Flow)
}

// NumFlows counts all flows across coflows.
func (in *Instance) NumFlows() int {
	n := 0
	for i := range in.Coflows {
		n += len(in.Coflows[i].Flows)
	}
	return n
}

// TotalDemand sums demand over all flows.
func (in *Instance) TotalDemand() float64 {
	var s float64
	for i := range in.Coflows {
		s += in.Coflows[i].TotalDemand()
	}
	return s
}

// MaxRelease returns the latest effective release time in the instance.
func (in *Instance) MaxRelease() float64 {
	var m float64
	for i := range in.Coflows {
		c := &in.Coflows[i]
		for j := range c.Flows {
			if r := c.EffectiveRelease(j); r > m {
				m = r
			}
		}
	}
	return m
}

// Validate checks the instance for structural problems under the given
// model: positive demands and weights, sources distinct from sinks,
// valid paths (single path) or reachable sinks (free path).
func (in *Instance) Validate(model Model) error {
	if in.Graph == nil {
		return errors.New("coflow: instance has no graph")
	}
	if len(in.Coflows) == 0 {
		return errors.New("coflow: instance has no coflows")
	}
	for ci := range in.Coflows {
		c := &in.Coflows[ci]
		if c.Weight <= 0 {
			return fmt.Errorf("coflow %d: non-positive weight %g", c.ID, c.Weight)
		}
		if c.Release < 0 {
			return fmt.Errorf("coflow %d: negative release %g", c.ID, c.Release)
		}
		if len(c.Flows) == 0 {
			return fmt.Errorf("coflow %d: no flows", c.ID)
		}
		for fi := range c.Flows {
			f := &c.Flows[fi]
			if f.Demand <= 0 {
				return fmt.Errorf("coflow %d flow %d: non-positive demand %g", c.ID, fi, f.Demand)
			}
			if f.Source == f.Sink {
				return fmt.Errorf("coflow %d flow %d: source equals sink", c.ID, fi)
			}
			switch model {
			case SinglePath:
				if len(f.Path) == 0 {
					return fmt.Errorf("coflow %d flow %d: single path model requires a path", c.ID, fi)
				}
				if err := in.Graph.ValidatePath(f.Source, f.Sink, f.Path); err != nil {
					return fmt.Errorf("coflow %d flow %d: %w", c.ID, fi, err)
				}
			case FreePath:
				if in.Graph.HopDistance(f.Source, f.Sink) < 0 {
					return fmt.Errorf("coflow %d flow %d: sink unreachable from source", c.ID, fi)
				}
			case MultiPath:
				if len(f.AltPaths) == 0 {
					return fmt.Errorf("coflow %d flow %d: multi path model requires AltPaths", c.ID, fi)
				}
				for pi, p := range f.AltPaths {
					if err := in.Graph.ValidatePath(f.Source, f.Sink, p); err != nil {
						return fmt.Errorf("coflow %d flow %d path %d: %w", c.ID, fi, pi, err)
					}
				}
			default:
				return fmt.Errorf("coflow: unknown model %d", model)
			}
		}
	}
	return nil
}

// HorizonUpperBound returns an upper bound (in time units) on the
// makespan of any reasonable schedule: the latest release plus the
// time to ship every flow sequentially at the worst bottleneck rate.
// It is the T used to size the time-indexed LP (Section 3).
func (in *Instance) HorizonUpperBound(model Model) float64 {
	horizon := in.MaxRelease()
	for ci := range in.Coflows {
		c := &in.Coflows[ci]
		for fi := range c.Flows {
			f := &c.Flows[fi]
			var rate float64
			if model == SinglePath && len(f.Path) > 0 {
				rate = in.Graph.PathCapacity(f.Path)
			} else if model == MultiPath && len(f.AltPaths) > 0 {
				// Sequential bound: the first candidate path alone.
				rate = in.Graph.PathCapacity(f.AltPaths[0])
			} else {
				// A single edge out of the source bounds the rate from
				// below only via max-flow; the cheapest safe bound is
				// the global minimum capacity.
				rate = in.Graph.MinCapacity()
			}
			if rate <= 0 {
				continue
			}
			horizon += f.Demand / rate
		}
	}
	return horizon
}

// HorizonLowerBound returns a lower bound (in time units) on the
// makespan of every feasible schedule: a time grid whose horizon falls
// below it cannot fit the instance, so the interval LP on that grid is
// infeasible without solving it. Two certificates are combined: per
// flow, its release plus its demand at the path's bottleneck rate; and
// in the single path model — where routes are fixed, so per-edge
// traffic is exact — per edge, the earliest release among its flows
// plus the edge's total traffic at full capacity. Models without fixed
// routes fall back to the release-only portion of the bound.
func (in *Instance) HorizonLowerBound(model Model) float64 {
	lb := 0.0
	singlePath := model == SinglePath
	var edgeDemand, edgeRelease []float64
	if singlePath {
		edgeDemand = make([]float64, in.Graph.NumEdges())
		edgeRelease = make([]float64, in.Graph.NumEdges())
		for e := range edgeRelease {
			edgeRelease[e] = math.Inf(1)
		}
	}
	for ci := range in.Coflows {
		c := &in.Coflows[ci]
		for fi := range c.Flows {
			f := &c.Flows[fi]
			if f.Demand <= 0 {
				continue
			}
			r := c.EffectiveRelease(fi)
			if r > lb {
				lb = r
			}
			if !singlePath || len(f.Path) == 0 {
				continue
			}
			if rate := in.Graph.PathCapacity(f.Path); rate > 0 {
				if v := r + f.Demand/rate; v > lb {
					lb = v
				}
			}
			for _, e := range f.Path {
				edgeDemand[e] += f.Demand
				if r < edgeRelease[e] {
					edgeRelease[e] = r
				}
			}
		}
	}
	for e := range edgeDemand {
		if edgeDemand[e] <= 0 {
			continue
		}
		if cap := in.Graph.Edge(graph.EdgeID(e)).Capacity; cap > 0 {
			if v := edgeRelease[e] + edgeDemand[e]/cap; v > lb {
				lb = v
			}
		}
	}
	return lb
}

// AssignKShortestPaths fills in AltPaths for every flow with up to k
// shortest loopless paths, for the multi path model. Flows that
// already have AltPaths keep them.
func (in *Instance) AssignKShortestPaths(k int) error {
	for ci := range in.Coflows {
		c := &in.Coflows[ci]
		for fi := range c.Flows {
			f := &c.Flows[fi]
			if len(f.AltPaths) > 0 {
				continue
			}
			ps := in.Graph.KShortestPaths(f.Source, f.Sink, k)
			if len(ps) == 0 {
				return fmt.Errorf("coflow %d flow %d: no path from %s to %s",
					c.ID, fi, in.Graph.NodeName(f.Source), in.Graph.NodeName(f.Sink))
			}
			f.AltPaths = ps
		}
	}
	return nil
}

// AssignRandomShortestPaths fills in Path for every flow by sampling a
// uniformly random shortest path, the paper's convention for the
// single path model experiments ("we randomly select one of the
// shortest paths"). Flows that already have a path keep it. The draws
// share one graph.PathSampler, so each distinct source costs one BFS.
func (in *Instance) AssignRandomShortestPaths(rng *rand.Rand) error {
	ps := graph.NewPathSampler(in.Graph)
	for ci := range in.Coflows {
		c := &in.Coflows[ci]
		for fi := range c.Flows {
			f := &c.Flows[fi]
			if len(f.Path) > 0 {
				continue
			}
			p := ps.Sample(rng, f.Source, f.Sink)
			if p == nil {
				return fmt.Errorf("coflow %d flow %d: no path from %s to %s",
					c.ID, fi, in.Graph.NodeName(f.Source), in.Graph.NodeName(f.Sink))
			}
			f.Path = p
		}
	}
	return nil
}
