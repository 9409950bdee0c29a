package ingest_test

// ingest.Store is the fourth api.Backend: reads through its pinned
// generation views must meet the same contract a Local over the same
// store file does.

import (
	"testing"

	"repro/internal/api"
	"repro/internal/api/conformance"
	"repro/internal/ingest"
)

func TestConformanceIngestStore(t *testing.T) {
	for name, fx := range map[string]*conformance.Fixture{
		"uniform": conformance.NewFixture(t),
		"mixed":   conformance.NewMixedFixture(t),
	} {
		fx := fx
		t.Run(name, func(t *testing.T) {
			conformance.Run(t, fx, func(t *testing.T) api.Backend {
				s, err := ingest.Open(fx.BuildStore(t, t.TempDir()), ingest.Options{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				return s
			})
		})
	}
}
