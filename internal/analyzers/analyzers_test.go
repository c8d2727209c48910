package analyzers_test

import (
	"testing"

	"flat/internal/analysis/analysistest"
	"flat/internal/analyzers"
)

func TestAdmitRelease(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.AdmitRelease, "admitrelease")
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

func TestGuardPair(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.GuardPair, "guardpair")
}

func TestWalSync(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.WalSync, "walsync")
}

func TestReflectSort(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.ReflectSort, "reflectsort")
	analysistest.Run(t, "testdata", analyzers.ReflectSort, "reflectsortbench")
}
