// Command liveingest is a live producer: it runs the shallow-water
// simulation and streams its height-field checkpoints into a running
// `goblaz serve` instance's appendable store, where they become
// queryable the moment the next commit lands. It demonstrates the
// streaming-ingest loop end to end — simulate, checkpoint, POST
// /v1/datasets/{name}/frames through the SDK, back off when the server
// sheds load.
//
// Start a server with an ingest mount, then run this against it:
//
//	go run ./cmd/goblaz serve -addr :8080 -ingest live=live.gbz \
//	    -ingest-spec "goblaz:block=8x8,float=float32,index=int16" \
//	    -commit-every 8
//	go run ./examples/liveingest -url http://localhost:8080/v1/datasets/live
//
// While it runs, queries against the mount watch the dataset grow:
//
//	go run ./cmd/goblaz query -labels 0.. -aggs mean,max \
//	    http://localhost:8080/v1/datasets/live
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/api"
	"repro/internal/scalar"
	"repro/internal/sim/shallowwater"
)

func main() {
	url := flag.String("url", "http://localhost:8080", "ingest-mounted dataset base URL")
	frames := flag.Int("frames", 32, "checkpoints to stream before exiting")
	stride := flag.Int("stride", 25, "simulation steps between checkpoints")
	batch := flag.Int("batch", 4, "checkpoints per ingest request")
	interval := flag.Duration("interval", 0, "pause between checkpoints (0 = as fast as the sim runs)")
	flag.Parse()

	// Retries ride the SDK: 429 (admission control shedding ingest) and
	// transient gateway failures back off and replay the batch. Replays
	// are safe — the server rejects duplicate labels, so a batch that
	// was accepted before the response was lost cannot double-append.
	c, err := api.NewClient(*url, api.ClientOptions{
		Timeout: 30 * time.Second, // per attempt: a batch carries real payload
		Retries: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Continue after the store's current maximum label so restarting the
	// producer appends instead of colliding.
	next := 0
	if infos, err := c.Frames(ctx); err == nil {
		for _, e := range infos {
			if e.Label >= next {
				next = e.Label + 1
			}
		}
	}

	sim, err := shallowwater.New(shallowwater.DefaultConfig(scalar.Float64))
	if err != nil {
		log.Fatal(err)
	}

	cfg := shallowwater.DefaultConfig(scalar.Float64)
	shape := []int{cfg.Ny, cfg.Nx}
	start := time.Now()
	sent := 0
	pending := make([]api.IngestFrame, 0, *batch)
	flush := func() {
		if len(pending) == 0 {
			return
		}
		res, err := c.Ingest(ctx, pending)
		if err != nil {
			log.Fatalf("ingest labels %d..%d (%s): %v",
				pending[0].Label, pending[len(pending)-1].Label, api.CodeOf(err), err)
		}
		sent += res.Accepted
		state := "pending commit"
		if res.Committed {
			state = "committed"
		}
		fmt.Printf("step %6d: sent labels %d..%d (%s, %d frames durable in the store log)\n",
			sim.StepCount(), pending[0].Label, pending[len(pending)-1].Label, state, res.Pending)
		pending = pending[:0]
	}

	for i := 0; i < *frames; i++ {
		sim.Run(*stride)
		h := sim.Height()
		pending = append(pending, api.IngestFrame{Label: next, Shape: shape, Data: h.Data()})
		next++
		if len(pending) >= *batch {
			flush()
		}
		if *interval > 0 {
			time.Sleep(*interval)
		}
	}
	flush()

	elapsed := time.Since(start)
	fmt.Printf("streamed %d checkpoint(s) of %dx%d in %s (%.1f frames/s), energy %.4g\n",
		sent, cfg.Ny, cfg.Nx, elapsed.Round(time.Millisecond),
		float64(sent)/elapsed.Seconds(), sim.Energy())
}
