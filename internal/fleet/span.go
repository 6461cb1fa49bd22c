package fleet

import "time"

// sinceEpoch places t on the farm's span clock. A zero epoch (a
// hand-built config that never went through Start) yields zero offsets
// rather than nonsense ones.
func sinceEpoch(epoch, t time.Time) time.Duration {
	if epoch.IsZero() {
		return 0
	}
	return max(t.Sub(epoch), 0)
}
