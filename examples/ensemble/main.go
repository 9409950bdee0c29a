// Ensemble testing (§VI future work): run the shallow-water model under
// several configurations ("compiled under different flags"), keep every
// run's final state only in compressed form, and compare the ensemble
// members with compressed-space distance metrics — the scenario the paper
// proposes for keeping numerical-consistency testing cheap.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/scalar"
	"repro/internal/series"
	"repro/internal/sim/shallowwater"
)

func main() {
	type member struct {
		name string
		cfg  shallowwater.Config
	}
	base := shallowwater.DefaultConfig(scalar.Float64)
	base.Ny, base.Nx = 64, 128

	members := []member{
		{"fp64 (reference)", withPrecision(base, scalar.Float64)},
		{"fp32", withPrecision(base, scalar.Float32)},
		{"bf16", withPrecision(base, scalar.BFloat16)},
		{"fp16", withPrecision(base, scalar.Float16)},
	}

	settings := core.DefaultSettings(16, 16)
	comp, err := core.NewCompressor(settings)
	if err != nil {
		log.Fatal(err)
	}
	ens := series.New(comp)
	for _, m := range members {
		sim, err := shallowwater.New(m.cfg)
		if err != nil {
			log.Fatal(err)
		}
		sim.Run(2500)
		if err := ens.Append(sim.Height()); err != nil {
			log.Fatal(err)
		}
	}

	bytes, err := ens.CompressedBytes()
	if err != nil {
		log.Fatal(err)
	}
	raw := len(members) * 64 * 128 * 8
	fmt.Printf("ensemble stored compressed: %d bytes (raw %d, ratio %.1f)\n\n",
		bytes, raw, float64(raw)/float64(bytes))

	dist, err := ens.DistanceMatrix(comp.L2Distance)
	if err != nil {
		log.Fatal(err)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header := "L2 distance"
	for _, m := range members {
		header += "\t" + m.name
	}
	fmt.Fprintln(w, header)
	for i, m := range members {
		row := m.name
		for j := range members {
			row += fmt.Sprintf("\t%.5f", dist.At(i, j))
		}
		fmt.Fprintln(w, row)
	}
	w.Flush()

	fmt.Println("\ncosine similarity to the fp64 reference (compressed space):")
	ref := ens.Frame(0)
	for i, m := range members {
		cs, err := comp.CosineSimilarity(ref, ens.Frame(i))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-18s %.6f\n", m.name, cs)
	}
	fmt.Println("\nthe 16-bit members drift measurably; fp32 stays close to fp64 —")
	fmt.Println("all computed without decompressing a single ensemble member.")
}

func withPrecision(cfg shallowwater.Config, p scalar.FloatType) shallowwater.Config {
	cfg.Precision = p
	return cfg
}
