package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	return string(readBody(t, resp))
}

// TestMetricsExpositionUnchanged holds the /metrics contract byte for byte
// against bodies captured at the commit before the counters moved into the
// one exposition table (52f2ce8): sample names, HELP and TYPE lines, order and
// labels, for a fresh server and for one that served a cold /v1/plan plus its
// repeat under the fake clock (so the histogram sums are fixed). With the
// cost store disabled its rows must still be present, and zero. bench/ and servesmoke
// scrape this body by name.
func TestMetricsExpositionUnchanged(t *testing.T) {
	cases := []struct {
		golden string
		cfg    Config
		plan   bool
	}{
		{"metrics_fresh.prom", Config{}, false},
		{"metrics_planned.prom", Config{}, true},
		{"metrics_planned_nostore.prom", Config{CostStoreSize: -1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			tc.cfg.Clock = newTestClock().Now
			_, ts := testServer(t, tc.cfg)
			if tc.plan {
				readBody(t, postPlan(t, ts, tightBody(4, 8)))
				readBody(t, postPlan(t, ts, tightBody(4, 8)))
			}
			got := scrapeMetrics(t, ts)
			path := filepath.Join("testdata", tc.golden)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("/metrics differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
			}
		})
	}
}
