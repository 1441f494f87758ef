package batch

import "mddm/internal/obs"

// Batch-scheduler metrics. The bypass reason label set is closed (the
// plan.Bypass* constants) so every series registers at init and scrape
// output is stable from the first query; an unexpected reason folds into
// the "other" series instead of minting a label at runtime.
var (
	mBatches = obs.NewCounter("mddm_batch_batches_total",
		"Fused shared-scan batches launched.")
	mMembers = obs.NewCounter("mddm_batch_members_total",
		"Queries answered from a fused shared scan (leaders included).")
	mScansSaved = obs.NewCounter("mddm_batch_shared_scan_savings_total",
		"Kernel passes avoided by sharing (members beyond each batch leader).")
	mMembersPerBatch = obs.NewValueHistogram("mddm_batch_members_per_batch",
		"Members per fused batch.", obs.CountBuckets)
	mBypasses = map[string]*obs.Counter{
		"describe": newBypassCounter("describe"),
		"facts":    newBypassCounter("facts"),
		"global":   newBypassCounter("global"),
		"cross":    newBypassCounter("cross"),
		"error":    newBypassCounter("error"),
	}
	mBypassOther = newBypassCounter("other")
)

func newBypassCounter(reason string) *obs.Counter {
	return obs.NewCounter("mddm_batch_bypass_total",
		"Queries that could not join a fused scan, by reason.",
		obs.Label{Key: "reason", Value: reason})
}
