package plan

import "mddm/internal/obs"

// Planner metrics: queries by execution mode, fallbacks by reason, and
// end-to-end planner latency. The reason label set is closed (see
// explain.go), so every series is registered at init and scrape output is
// stable from the first query.
var (
	mPlanPlanned = obs.NewCounter("mddm_plan_queries_total",
		"Queries executed through the columnar planner, by mode.",
		obs.Label{Key: "mode", Value: ModePlanned})
	mPlanFallback = obs.NewCounter("mddm_plan_queries_total",
		"Queries executed through the columnar planner, by mode.",
		obs.Label{Key: "mode", Value: ModeFallback})
	mPlanSeconds = obs.NewHistogram("mddm_plan_seconds",
		"End-to-end latency of planner-routed queries (either mode).",
		obs.DurationBuckets)
	mFallbacks = map[string]*obs.Counter{
		ReasonDescribe:          newFallbackCounter(ReasonDescribe),
		ReasonEngineUnavailable: newFallbackCounter(ReasonEngineUnavailable),
	}
)

func newFallbackCounter(reason string) *obs.Counter {
	return obs.NewCounter("mddm_plan_fallbacks_total",
		"Planner fallbacks to the full algebra path, by reason.",
		obs.Label{Key: "reason", Value: reason})
}
