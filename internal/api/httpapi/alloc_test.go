package httpapi

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/api"
)

// TestHandlerAllocs: the allocation ceiling of one request through the
// handler, server side, for a one-frame stats GET on a dataset mount
// with a request deadline, the recorder's own allocations included.
// It measured 56 on Go 1.24.0; the ceiling is that + 10 %, for the
// toolchain CI pins (Go 1.22), whose net/http and escape analysis may
// differ. A change that lowers the count lowers the ceiling.
func TestHandlerAllocs(t *testing.T) {
	const ceiling = 61
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	h := New(nil, nil, Options{
		RequestTimeout: time.Minute,
		Datasets:       map[string]api.Backend{"ds": buildLocal(t, 1, 8, 8)},
	})
	req := httptest.NewRequest("GET", "/v1/datasets/ds/frames/0/stats?aggs=mean", nil)
	got := testing.AllocsPerRun(100, func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 200 {
			t.Fatalf("stats GET = %d: %s", w.Code, w.Body)
		}
	})
	if got > ceiling {
		t.Errorf("a one-frame stats GET makes %.0f allocations, ceiling %d", got, ceiling)
	}
}
