// Command xentry-report regenerates every table and figure of the paper's
// evaluation in one run: Fig. 3, the Section III-B classifier study with
// the Fig. 6 tree, Fig. 7, Figs. 8–10 with the per-site coverage rows,
// Table II, the Section VI live recovery study (restore and re-execute on
// detection, paired against a recovery-off baseline), the microreboot
// recovery classification table, the model sweeps (features, tree depth,
// training size, naive Bayes), and Fig. 11. It ends with the time the
// whole report took.
//
// Usage:
//
//	xentry-report [-quick] [-seed S]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"xentry/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xentry-report: ")
	quick := flag.Bool("quick", false, "run the reduced-scale version")
	seed := flag.Int64("seed", 20140901, "deterministic seed")
	flag.Parse()

	sc := experiments.DefaultScale()
	if *quick {
		sc = experiments.QuickScale()
	}
	sc.Seed = *seed

	start := time.Now()
	if err := experiments.WriteReport(os.Stdout, sc, func(stage string) { log.Print(stage) }); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("report complete in %v\n", time.Since(start).Round(time.Millisecond))
}
