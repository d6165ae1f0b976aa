package spread

import (
	"errors"
	"testing"
	"time"

	"remotepeering/internal/lg"
	"remotepeering/internal/worldgen"
)

// TestRunRejectsNonPositiveDuration checks that a campaign duration that
// is not positive — what an overflowing day count wraps to — fails with
// ErrCampaignDuration before any simulation starts, instead of reaching
// the engine and panicking inside a worker goroutine.
func TestRunRejectsNonPositiveDuration(t *testing.T) {
	w, err := worldgen.Generate(worldgen.Config{Seed: 3, LeafNetworks: 1500})
	if err != nil {
		t.Fatal(err)
	}
	days := 200000
	overflowed := time.Duration(days) * 24 * time.Hour
	for _, d := range []time.Duration{-time.Hour, overflowed} {
		_, err := Run(w, Options{IXPs: []int{0, 1}, Workers: 2, Campaign: lg.Config{Duration: d}})
		if !errors.Is(err, ErrCampaignDuration) {
			t.Errorf("Duration %v: err = %v, want ErrCampaignDuration", d, err)
		}
	}
}
