package analyzers_test

import (
	"testing"

	"flat/internal/analysis/analysistest"
	"flat/internal/analyzers"
)

// TestEveryAnalyzerHasFixture runs each registered analyzer over the
// testdata/src package of its own name, so an analyzer cannot join
// All() without a fixture. The named tests below are the same runs
// plus the extra fixture packages some analyzers have.
func TestEveryAnalyzerHasFixture(t *testing.T) {
	for _, a := range analyzers.All() {
		t.Run(a.Name, func(t *testing.T) {
			analysistest.Run(t, "testdata", a, a.Name)
		})
	}
}

func TestCtxCrawl(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.CtxCrawl, "ctxcrawl")
}

func TestStatsOnErr(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.StatsOnErr, "statsonerr")
}

func TestLockedField(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.LockedField, "lockedfield")
}

func TestPageIDPack(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.PageIDPack, "pageidpack")
	analysistest.Run(t, "testdata", analyzers.PageIDPack, "storagepkg")
}

func TestCodecBounds(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.CodecBounds, "codecbounds")
	analysistest.Run(t, "testdata", analyzers.CodecBounds, "storagepkg")
}

func TestWalSync(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.WalSync, "walsync")
}

func TestReflectSort(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.ReflectSort, "reflectsort")
	analysistest.Run(t, "testdata", analyzers.ReflectSort, "reflectsortbench")
}
