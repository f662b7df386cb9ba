// Command gusgen generates TPC-H-style data for use with gusquery and
// gusserve — as CSV files, or as mmap-ready columnar segments
// (-format segment) that those tools open without re-parsing:
//
//	gusgen -sf 0.001 -out ./data
//	gusgen -sf 0.01 -format segment -out ./segdata
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	gus "github.com/sampling-algebra/gus"
	"github.com/sampling-algebra/gus/internal/segment"
	"github.com/sampling-algebra/gus/internal/synopsis"
	"github.com/sampling-algebra/gus/internal/tpch"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "gusgen:", err)
		os.Exit(1)
	}
}

// run parses args as gusgen's command line, writes the tables they ask
// for, and reports each file written to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gusgen", flag.ContinueOnError)
	var (
		sf      = fs.Float64("sf", 0.001, "TPC-H scale factor (1.0 ≈ 1.5M orders)")
		orders  = fs.Int("orders", 0, "explicit orders cardinality (overrides -sf)")
		seed    = fs.Uint64("seed", 42, "generator seed")
		skew    = fs.Float64("skew", 0, "price skew knob (0 = uniform)")
		out     = fs.String("out", ".", "output directory")
		format  = fs.String("format", "csv", "output format: csv or segment (columnar *.gusseg files with zone maps)")
		synRate = fs.Float64("synopsis", 0, "also materialize a Bernoulli synopsis of each table at this rate, written as *.gussyn segments plus a synopses.json manifest (requires -format segment; load with gus.LoadSynopses)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "csv" && *format != "segment" {
		return fmt.Errorf("unknown -format %q (csv or segment)", *format)
	}
	if *synRate != 0 && *format != "segment" {
		return fmt.Errorf("-synopsis requires -format segment")
	}
	if *synRate < 0 || *synRate > 1 {
		return fmt.Errorf("-synopsis rate %v outside (0,1]", *synRate)
	}

	cfg := tpch.ScaleFactor(*sf, *seed)
	if *orders > 0 {
		cfg.Orders = *orders
		cfg.Customers = max(1, *orders/10)
		cfg.Parts = max(1, *orders/8)
	}
	cfg.PriceSkew = *skew
	tables, err := tpch.Generate(cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, rel := range tables.All() {
		if *format == "segment" {
			path := filepath.Join(*out, rel.Name()+segment.Ext)
			n, err := segment.Write(path, rel)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s (%d rows, %d bytes)\n", path, rel.Len(), n)
			continue
		}
		path := filepath.Join(*out, rel.Name()+".csv")
		if err := rel.SaveCSVFile(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d rows)\n", path, rel.Len())
	}
	if *synRate > 0 {
		var manifests []synopsis.Manifest
		for _, rel := range tables.All() {
			s, err := synopsis.Build(rel, synopsis.Spec{Name: rel.Name() + "_syn", Rate: *synRate, Seed: *seed}, 0)
			if err != nil {
				return err
			}
			path := filepath.Join(*out, s.Name+gus.SynopsisExt)
			n, err := segment.Write(path, s.Rel)
			if err != nil {
				return err
			}
			manifests = append(manifests, s.Manifest())
			fmt.Fprintf(stdout, "wrote %s (%d of %d rows at rate %g, %d bytes)\n", path, s.Rel.Len(), rel.Len(), *synRate, n)
		}
		data, err := json.MarshalIndent(manifests, "", "  ")
		if err != nil {
			return err
		}
		mpath := filepath.Join(*out, gus.SynopsisManifest)
		if err := os.WriteFile(mpath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d synopses)\n", mpath, len(manifests))
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
