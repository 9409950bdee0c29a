package main

// The query subcommand runs compressed-domain query plans — the same
// ones POST /v1/query serves — against a store file or a serving URL:
//
//	goblaz query -aggs mean,stddev series.gbz
//	goblaz query -aggs mean http://localhost:8080          (same plans, over HTTP)
//	goblaz query -labels '1?' -metric mse -against 0 series.gbz
//	goblaz query -region 3,5:7,9 -timeout 10s series.gbz
//	goblaz query -req '{"select":{},"aggregates":["mean"]}' series.gbz
//	goblaz query -req @request.json series.gbz        (or -req - for stdin)
//
// The store argument resolves through api.Backend (backend.go), so the
// local path and the URL produce identical results on the same store.
// -timeout deadlines the whole run; the engine (or the SDK) abandons
// remaining frames when it expires. The result is the engine's JSON,
// indented, on stdout.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/query"
)

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	reqJSON := fs.String("req", "", `full request JSON: inline, "@FILE", or "-" for stdin (overrides the query flags)`)
	labels := fs.String("labels", "", `label glob selecting frames, e.g. "1?" (default all)`)
	from := fs.Int("from", -1, "first frame position selected (inclusive)")
	to := fs.Int("to", -1, "frame position selection end (exclusive)")
	aggs := fs.String("aggs", "", "comma-separated aggregates: mean,variance,stddev,min,max,l2norm")
	reduce := fs.String("reduce", "", "comma-separated dataset-level aggregates over all selected frames together")
	metric := fs.String("metric", "", "pairwise metric: mse|psnr|dot|cosine")
	against := fs.String("against", "", "reference frame label for -metric (omit to compare 2 selected frames)")
	peak := fs.Float64("peak", 0, "peak value for -metric psnr (default 1)")
	region := fs.String("region", "", `region read "OFFSET:SHAPE", e.g. "3,5:7,9"`)
	point := fs.String("point", "", `point read multi-index, e.g. "10,12"`)
	cacheBytes := fs.Int64("cache-bytes", 0, "decoded-frame LRU cache budget in bytes (one-shot runs rarely benefit)")
	timeout := fs.Duration("timeout", 0, "overall deadline; expired work returns a canceled error (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("query needs one store path or URL")
	}

	var req *query.Request
	var err error
	if *reqJSON != "" {
		if req, err = loadQueryRequest(*reqJSON); err != nil {
			return err
		}
	} else {
		req = &query.Request{Select: query.Selector{Labels: *labels}}
		if *from >= 0 {
			req.Select.From = from
		}
		if *to >= 0 {
			req.Select.To = to
		}
		if *aggs != "" {
			req.Aggregates = strings.Split(*aggs, ",")
		}
		if *reduce != "" {
			req.Reduce = strings.Split(*reduce, ",")
		}
		if *metric == "" && (*against != "" || *peak != 0) {
			return fmt.Errorf("-against and -peak need -metric")
		}
		if *metric != "" {
			m := &query.MetricRequest{Kind: *metric, Peak: *peak}
			if *against != "" {
				label, err := strconv.Atoi(*against)
				if err != nil {
					return fmt.Errorf("bad -against label %q", *against)
				}
				m.Against = &label
			}
			req.Metric = m
		}
		if *region != "" {
			offsetStr, shapeStr, ok := strings.Cut(*region, ":")
			if !ok {
				return fmt.Errorf(`bad -region %q (want "OFFSET:SHAPE")`, *region)
			}
			reg := &query.RegionRequest{}
			if reg.Offset, err = parseInts(offsetStr); err != nil {
				return err
			}
			if reg.Shape, err = parseInts(shapeStr); err != nil {
				return err
			}
			req.Region = reg
		}
		if *point != "" {
			if req.Point, err = parseInts(*point); err != nil {
				return err
			}
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *cacheBytes != 0 && isServiceURL(fs.Arg(0)) {
		fmt.Fprintln(os.Stderr, "goblaz: -cache-bytes has no effect on a serving URL (the server's own cache governs)")
	}
	// No per-attempt client timeout: the run's deadline (ctx above) is
	// the only bound, so a long query behaves identically over a URL
	// and over a path.
	_, b, closeB, err := open(fs.Arg(0), query.Options{CacheBytes: *cacheBytes}, 0)
	if err != nil {
		return err
	}
	defer closeB()
	res, err := b.Query(ctx, req)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// loadQueryRequest parses the -req argument: inline JSON, @FILE, or -
// for stdin. Unknown fields are rejected so a typoed key fails loudly
// instead of silently querying less than asked.
func loadQueryRequest(arg string) (*query.Request, error) {
	var blob []byte
	var err error
	switch {
	case arg == "-":
		if blob, err = io.ReadAll(os.Stdin); err != nil {
			return nil, err
		}
	case strings.HasPrefix(arg, "@"):
		if blob, err = os.ReadFile(arg[1:]); err != nil {
			return nil, err
		}
	default:
		blob = []byte(arg)
	}
	req := &query.Request{}
	if err := query.DecodeJSON(strings.NewReader(string(blob)), req); err != nil {
		return nil, fmt.Errorf("bad request JSON: %w", err)
	}
	return req, nil
}
