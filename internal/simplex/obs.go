package simplex

// WarmOutcome reports what became of Options.WarmStart: accepted (the
// solve skipped phase 1) or the specific validation check that
// rejected it. The numeric codes are stable and exported by the engine
// as Result.Extra["warm-start"], so harnesses can tabulate fallback
// reasons instead of guessing from iteration counts.
type WarmOutcome int8

const (
	// WarmNone means no warm basis was supplied.
	WarmNone WarmOutcome = iota
	// WarmAccepted means the basis was installed and phase 1 skipped.
	WarmAccepted
	// WarmRejectedDims means the basis came from a problem with
	// different dimensions.
	WarmRejectedDims
	// WarmRejectedBasicCount means the basis does not name exactly m
	// basic variables.
	WarmRejectedBasicCount
	// WarmRejectedBounds means a recorded variable state is
	// incompatible with the new problem's bounds (or is not a valid
	// state code).
	WarmRejectedBounds
	// WarmRejectedSingular means the basis matrix failed to
	// refactorize (numerically singular for this problem).
	WarmRejectedSingular
	// WarmRejectedInfeasible means the refactorized basic values
	// violate their bounds, so phase 1 cannot be skipped.
	WarmRejectedInfeasible
)

// String names the outcome the way the obs counter labels it.
func (o WarmOutcome) String() string {
	switch o {
	case WarmNone:
		return "none"
	case WarmAccepted:
		return "accepted"
	case WarmRejectedDims:
		return "rejected-dims"
	case WarmRejectedBasicCount:
		return "rejected-basic-count"
	case WarmRejectedBounds:
		return "rejected-bounds"
	case WarmRejectedSingular:
		return "rejected-singular"
	case WarmRejectedInfeasible:
		return "rejected-infeasible"
	default:
		return "unknown"
	}
}

// flushObs folds the solve's locally accumulated counters into the
// registry. Counting is local ints in the hot loop — one flush per
// solve keeps atomics off the pivot path — and the flush runs on
// every exit, including numerical failures, so a solve that dies in
// refactorization still reports the pivots it burned (the large-LP
// robustness baseline depends on that).
func (s *solver) flushObs() {
	reg := s.opt.Obs
	if reg == nil {
		return
	}
	reg.Counter("simplex_solves_total").Inc()
	reg.Counter("simplex_pivots_total").Add(int64(s.iters))
	reg.Counter("simplex_refactorizations_total").Add(int64(s.nRefactor))
	// Add(0) still materializes the series, so scrapers can rely on the
	// perturbation counter existing from the first solve.
	reg.Counter("simplex_perturbations_total").Add(int64(s.nPerturb))
	// Every factorization of the solve is one of its refactorizations.
	// The lu.Factorization comes with the workspace from the free list
	// and has factorized for earlier solves too, so the solve counts its
	// own.
	reg.Counter("lu_factorizations_total").Add(int64(s.nRefactor))
	reg.Gauge("lu_fill_nnz").Set(int64(s.bas.lu.LNnz() + s.bas.lu.UNnz()))
	if s.warm != WarmNone {
		reg.Counter(`simplex_warm_start_total{outcome="` + s.warm.String() + `"}`).Inc()
	}
}
