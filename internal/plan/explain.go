package plan

import "context"

// Explain mode and shape labels.
const (
	ModePlanned = "planned"
	// Deprecated: ignored — never set; kept only because bench/ reads it
	// (ROADMAP item 1).
	ModeFallback = "fallback"

	ShapeFacts       = "facts"
	ShapeGlobal      = "global"
	ShapeKernelCount = "kernel-count"
	ShapeKernelSum   = "kernel-sum"
	ShapeGroupFold   = "group-fold"
	ShapeCross       = "cross"
	ShapeDescribe    = "describe"
)

// Explain describes how one query was executed; it is filled in when the
// caller installed a sink with WithExplain (the `?plan=1` HTTP output).
type Explain struct {
	// Mode is "planned" for every query the planner resolved; empty when it
	// never ran (a cache hit) or stopped first (an unknown MO, an engine
	// that could not be built).
	Mode string `json:"mode"`
	// Deprecated: ignored — never set; kept only because bench/ reads it
	// (ROADMAP item 1).
	Reason string `json:"reason,omitempty"`
	// Shape is the physical plan shape: "describe" (the schema rendering),
	// "facts", "cross", or one of the leg labels "global" (the ⊤ leg),
	// "kernel-count", "kernel-sum" and "group-fold" (one execution path;
	// see finishLeg).
	Shape string `json:"shape,omitempty"`
	// Kernel reports the strategy the storage kernel ran: "column" or
	// "bitmap" for the leg shapes, solo and batched alike (the value
	// storage.ScanLeg returned; ⊤ has no column); always "column" for
	// cross.
	Kernel string `json:"kernel,omitempty"`
	// Groups counts the result rows before HAVING/ORDER/LIMIT.
	Groups int `json:"groups,omitempty"`
	// View is set when the query was answered from a context view of the
	// engine — it asked for an ASOF instant or a WITH PROB threshold, or
	// its aggregate reads membership probabilities: "built" when resolving
	// the engine made the view, "cached" when the engine still had it
	// (storage.Engine.View). AsofValid, AsofTrans and MinProb are the
	// view's evaluation context beyond the current one.
	View      string  `json:"view,omitempty"`
	AsofValid string  `json:"asof_valid,omitempty"`
	AsofTrans string  `json:"asof_trans,omitempty"`
	MinProb   float64 `json:"min_prob,omitempty"`
}

type explainKey struct{}

// WithExplain installs an explain sink into the context and returns it;
// the planner fills the sink while executing.
func WithExplain(ctx context.Context) (context.Context, *Explain) {
	ex := &Explain{}
	return context.WithValue(ctx, explainKey{}, ex), ex
}

// explainFrom returns the context's explain sink, or nil.
func explainFrom(ctx context.Context) *Explain {
	ex, _ := ctx.Value(explainKey{}).(*Explain)
	return ex
}
