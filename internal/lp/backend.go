package lp

import (
	"fmt"
	"sync/atomic"
)

// BackendKind selects one of the LP backend implementations behind the
// Backend interface.
type BackendKind string

const (
	// Dense is the dense simplex backend: it maintains an explicit dense
	// basis inverse, so per-pivot work is Θ(m²) regardless of sparsity.
	// It is the reference/fallback implementation.
	Dense BackendKind = "dense"
	// Sparse is the sparse revised simplex backend: columns are stored
	// sparse and the basis inverse is kept in product form (an eta file
	// with periodic refactorization), so per-pivot work scales with the
	// number of nonzeros rather than the matrix dimensions.
	Sparse BackendKind = "sparse"
)

// DefaultBackend is the backend used when a caller does not choose one.
const DefaultBackend = Sparse

// ParseBackend validates a backend name ("" means DefaultBackend).
func ParseBackend(s string) (BackendKind, error) {
	switch BackendKind(s) {
	case "":
		return DefaultBackend, nil
	case Dense, Sparse:
		return BackendKind(s), nil
	default:
		return "", fmt.Errorf("lp: unknown backend %q (want %q or %q)", s, Dense, Sparse)
	}
}

// VarStatus is the state of a column in a Basis snapshot.
type VarStatus int8

const (
	// NonbasicLower: the variable sits at its lower bound (0).
	NonbasicLower VarStatus = iota
	// NonbasicUpper: the variable sits at its upper bound.
	NonbasicUpper
	// BasicVar: the variable is basic; its value is determined by the basis.
	BasicVar
)

// Basis is a snapshot of a simplex basis, transplantable between backends
// bound to the same Problem. The column space is the standard form shared
// by all backends: structural variables [0, NumVars()), then one slack per
// constraint row (column NumVars()+r for row r).
type Basis struct {
	// Cols[r] is the column basic in row r.
	Cols []int
	// Status[j] is the state of column j; exactly the columns listed in
	// Cols must be BasicVar.
	Status []VarStatus
}

// ExtendBasis remaps a basis snapshot taken from a backend bound to a
// Problem with oldVars variables and oldRows rows onto the standard form of
// the same Problem after it grew (append-only) to newVars variables and
// newRows rows. Structural columns keep their indices, old slack columns
// shift from oldVars+r to newVars+r, new structural columns enter nonbasic
// at their lower bound, and each new row is made basic in its own slack.
//
// The result is a valid basis for Warm on a backend built from the grown
// problem: the basis matrix is block-triangular (old basis over old rows,
// identity slacks over new rows), hence nonsingular, and for a
// zero-objective feasibility LP it is dual feasible — a Solve then repairs
// primal feasibility with a handful of dual-simplex pivots instead of a
// cold phase-1 run. This is the transplant step of the incremental
// re-solve pipeline (rounding.Relaxation.ApplyDelta): extend the retained
// Problem with a delta's rows and columns, rebuild the backend, ExtendBasis
// the retained snapshot, Warm, Solve.
func ExtendBasis(b *Basis, oldVars, newVars, oldRows, newRows int) (*Basis, error) {
	if b == nil || len(b.Cols) != oldRows || len(b.Status) != oldVars+oldRows {
		return nil, fmt.Errorf("lp: ExtendBasis snapshot has wrong shape (want %d rows, %d columns)", oldRows, oldVars+oldRows)
	}
	if newVars < oldVars || newRows < oldRows {
		return nil, fmt.Errorf("lp: ExtendBasis cannot shrink (%d→%d vars, %d→%d rows)", oldVars, newVars, oldRows, newRows)
	}
	out := &Basis{
		Cols:   make([]int, newRows),
		Status: make([]VarStatus, newVars+newRows),
	}
	remap := func(c int) int {
		if c >= oldVars {
			return newVars + (c - oldVars)
		}
		return c
	}
	for r := 0; r < oldRows; r++ {
		out.Cols[r] = remap(b.Cols[r])
	}
	copy(out.Status[:oldVars], b.Status[:oldVars])
	for j := oldVars; j < newVars; j++ {
		out.Status[j] = NonbasicLower
	}
	for r := 0; r < oldRows; r++ {
		out.Status[newVars+r] = b.Status[oldVars+r]
	}
	for r := oldRows; r < newRows; r++ {
		out.Cols[r] = newVars + r
		out.Status[newVars+r] = BasicVar
	}
	return out, nil
}

// Backend is a mutable LP solver instance bound to one Problem. Unlike
// Problem.Solve, a Backend persists its basis and factorization between
// calls: after an optimal Solve, the RHS and variable upper bounds can be
// changed in place and the next Solve warm-starts from the previous basis
// (dual simplex when the basis went primal-infeasible, an immediate exit
// when it is still optimal). This turns a sequence of related solves —
// e.g. the per-guess LP feasibility tests of a dual-approximation search —
// from guesses × full-solve into one build plus cheap re-solves.
//
// Backends are not safe for concurrent use. The Solution returned by Solve
// (including its X slice) is owned by the backend and valid only until the
// next Solve call; callers that need to retain it must copy.
type Backend interface {
	// Solve optimizes from the current state. The first call solves cold;
	// later calls warm-start from the previous basis.
	Solve() (*Solution, error)
	// SetRHS replaces the right-hand side of constraint row r (rows are
	// indexed in Problem.AddConstraint order).
	SetRHS(r int, rhs float64)
	// SetVarUpper replaces the upper bound of structural variable v.
	// Clamping a variable to 0 fixes it without rebuilding the problem.
	SetVarUpper(v int, upper float64)
	// Basis snapshots the current basis (after a Solve).
	Basis() *Basis
	// Warm installs a basis snapshot (e.g. taken from another backend bound
	// to the same problem), refactorizing as needed. The next Solve starts
	// from it. A snapshot of the wrong shape, or one naming a column in two
	// rows, is rejected with an error before any factorization.
	Warm(*Basis) error
	// Kind reports the implementation kind.
	Kind() BackendKind
	// Clone returns an independent backend with the same problem data,
	// mutation state (RHS, variable bounds) and basis/factorization, backed
	// by its own private Workspace: mutating or solving the clone never
	// perturbs the parent and vice versa, so clones can solve concurrently
	// on separate goroutines (one goroutine per backend — a single Backend
	// remains non-thread-safe). Clone must not be called concurrently with
	// a Solve or mutation on the receiver. This is the substrate of the
	// speculative parallel dual search: each search worker re-solves on its
	// own clone, keeping the locality of its warm basis.
	Clone() Backend
}

// NewBackend builds a backend of the given kind bound to p. The problem's
// rows and variables are copied into the backend's standard form at
// construction; later Problem mutations are not observed (use the backend's
// own SetRHS/SetVarUpper mutators). ws supplies reusable scratch so that
// building and solving allocates from the workspace's grow-only buffers;
// nil allocates a private workspace.
//
// By default the standard form is built with equilibration scaling (see
// WithPresolve); every solve then reports Solution.Presolve.
func NewBackend(kind BackendKind, p *Problem, ws *Workspace, opts ...BackendOption) (Backend, error) {
	kind, err := ParseBackend(string(kind))
	if err != nil {
		return nil, err
	}
	cfg := backendConfig{presolve: true}
	for _, o := range opts {
		o(&cfg)
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	s := newSolverState(kind, p, ws, cfg.presolve)
	if cfg.start != nil {
		s.installStart(cfg.start)
	}
	return s, nil
}

// BackendOption configures NewBackend beyond the kind/problem/workspace
// triple. Options are additive so existing call sites keep compiling.
type BackendOption func(*backendConfig)

type backendConfig struct {
	presolve bool
	start    *Basis
}

// WithPresolve toggles equilibration scaling of the backend's standard
// form (default: on). On, the build runs Ruiz passes over the matrix and
// the solver works in scaled coordinates; SetRHS, SetVarUpper and the
// reported X stay in the Problem's. Off builds with unit scales: the raw
// reference the scaled solves are tested against.
func WithPresolve(on bool) BackendOption {
	return func(c *backendConfig) { c.presolve = on }
}

// WithStart hands the backend a start basis for its first Solve, in the
// full standard form of the Problem (the shape Basis and Warm use). The
// first cold Solve begins at it instead of at the all-slack basis: a
// primal-feasible start skips phase 1. Equilibration scaling moves no
// column between its bounds, so the start applies with or without it. A
// rejected or singular basis leaves that solve cold. Later solves never
// see it. Whether a solve used it is reported by Solution.FromStart.
func WithStart(b *Basis) BackendOption {
	return func(c *backendConfig) { c.start = b }
}

// PresolveInfo reports the equilibration scaling of one backend build. It
// is attached to every Solution of a scaled backend (Solution.Presolve).
type PresolveInfo struct {
	// ScalePasses is the number of Ruiz passes the build ran (0 when the
	// matrix was already equilibrated).
	ScalePasses int
}

// PresolveTotalsSnapshot is a process-wide aggregate of equilibration
// scaling, for /statsz and schedbench reporting.
type PresolveTotalsSnapshot struct {
	// Runs counts scaled backend builds.
	Runs int64 `json:"runs"`
	// RowsBefore and RowsAfter sum the rows of those builds. Scaling
	// removes no row, so the two are equal; they stay for readers of the
	// row-cut figure.
	RowsBefore  int64 `json:"rowsBefore"`
	RowsAfter   int64 `json:"rowsAfter"`
	ScalePasses int64 `json:"scalePasses"`
}

var presolveAgg struct {
	runs, rows, scalePasses atomic.Int64
}

// PresolveTotals snapshots the process-wide scaling aggregates.
func PresolveTotals() PresolveTotalsSnapshot {
	rows := presolveAgg.rows.Load()
	return PresolveTotalsSnapshot{
		Runs:        presolveAgg.runs.Load(),
		RowsBefore:  rows,
		RowsAfter:   rows,
		ScalePasses: presolveAgg.scalePasses.Load(),
	}
}
