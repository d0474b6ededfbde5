// Custom circuit: running the flow on your own design.
//
// Builds a small serial parity checker with a 4-bit shift history
// programmatically (no .bench file needed), inserts scan, and runs
// generation and compaction through the public API. This is the path a
// downstream user takes for a circuit that is not in the catalog.
//
// Run with:
//
//	go run ./examples/customcircuit
package main

import (
	"fmt"
	"log"
	"strings"

	scanatpg "repro"
)

// build constructs the example design: din shifts through a 4-stage
// history; "match" fires when the history equals 1011 and the enable is
// set; a parity flip-flop accumulates XORs of din.
func build() (*scanatpg.Circuit, error) {
	b := scanatpg.NewBuilder("parity4")
	b.AddInput("din")
	b.AddInput("en")

	// 4-stage shift history of din.
	b.AddFF("h0", "din")
	b.AddFF("h1", "h0")
	b.AddFF("h2", "h1")
	b.AddFF("h3", "h2")

	// Pattern match 1011 (h3=1, h2=0, h1=1, h0=1) gated by en.
	b.AddGate(scanatpg.NotGate, "n2", "h2")
	b.AddGate(scanatpg.AndGate, "m0", "h3", "n2")
	b.AddGate(scanatpg.AndGate, "m1", "h1", "h0")
	b.AddGate(scanatpg.AndGate, "match", "m0", "m1", "en")

	// Running parity of din.
	b.AddGate(scanatpg.XorGate, "pnext", "par", "din")
	b.AddFF("par", "pnext")

	b.MarkOutput("match")
	b.MarkOutput("par")
	return b.Build()
}

func main() {
	c, err := build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %s: %d inputs, %d flip-flops, %d gates\n",
		c.Name, c.NumInputs(), c.NumFFs(), c.NumGates())
	fmt.Println(strings.Repeat("-", 50))
	fmt.Print(scanatpg.FormatBench(c))
	fmt.Println(strings.Repeat("-", 50))

	sc, err := scanatpg.InsertScan(c)
	if err != nil {
		log.Fatal(err)
	}
	faults := scanatpg.Faults(sc.Scan, true)
	gen := scanatpg.Generate(sc, faults, scanatpg.GenerateOptions{Seed: 1})
	fmt.Printf("\ngenerated %d-cycle sequence, %d/%d faults detected (%d via scan knowledge)\n",
		len(gen.Sequence), gen.NumDetected(), len(faults), gen.NumFunct())

	compacted, _ := scanatpg.Compact(sc, gen.Sequence, faults, scanatpg.CompactOptions{})
	fmt.Printf("compacted to %d cycles\n", len(compacted))

	// Show the final sequence; for a 5-flip-flop chain the limited
	// scan operations are easy to spot in the scan_sel column.
	fmt.Println("\nfinal sequence (din en | scan_sel scan_inp):")
	for t, v := range compacted {
		fmt.Printf("%3d  %v %v | %v %v\n", t, v[0], v[1], v[sc.SelPI], v[sc.InpPIs[0]])
	}
}
