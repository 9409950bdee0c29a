package main

// The metrics subcommand: a one-shot scrape of a running goblaz server.
// By default it fetches the Prometheus text exposition from /metrics
// (works against both the main listener with -metrics and the
// -debug-addr port); -json fetches the /v1/debug/metrics snapshot
// instead and pretty-prints it. A URL that already names a path is
// used verbatim, so any compatible endpoint can be dumped.
//
//	goblaz metrics http://localhost:6060
//	goblaz metrics -json http://localhost:8080

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
)

func runMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "fetch the JSON snapshot (/v1/debug/metrics) instead of the Prometheus text exposition")
	timeout := fs.Duration("timeout", 10*time.Second, "scrape deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("metrics needs one server URL")
	}
	target, err := metricsURL(fs.Arg(0), *asJSON)
	if err != nil {
		return err
	}
	body, err := scrape(target, *timeout)
	if err != nil {
		return err
	}
	if *asJSON {
		// Round-trip through the snapshot type: validates the document and
		// re-indents it for reading.
		var snap obs.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			return fmt.Errorf("%s: %w", target, err)
		}
		out, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		body = append(out, '\n')
	}
	_, err = os.Stdout.Write(body)
	return err
}

// metricsURL resolves a server base URL to the scrape endpoint. A URL
// that already carries a path is trusted as-is.
func metricsURL(raw string, asJSON bool) (string, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", err
	}
	if u.Scheme == "" {
		return "", fmt.Errorf("%q is not a server URL (want http[s]://host:port)", raw)
	}
	if p := strings.Trim(u.Path, "/"); p != "" {
		return raw, nil
	}
	base := strings.TrimRight(raw, "/")
	if asJSON {
		return base + "/v1/debug/metrics", nil
	}
	return base + "/metrics", nil
}

// scrape fetches one document with a deadline and a bounded body.
func scrape(target string, timeout time.Duration) ([]byte, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(target)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", target, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}
