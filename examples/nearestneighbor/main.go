// Nearest-neighbor exchange on the MLFM (the Fig. 14 experiment):
// processes are arranged in the structure-aligned 3-D torus
// (p, h+1, h), so X exchanges stay inside a router, Y exchanges cross
// a layer (single minimal path — the case adaptive routing must
// rescue), and Z exchanges land on same-column router pairs with
// h-fold path diversity.
package main

import (
	"fmt"
	"log"

	"diam2"
)

func main() {
	mlfm, err := diam2.NewMLFM(6)
	if err != nil {
		log.Fatal(err)
	}
	tor, err := diam2.FitTorus3D(mlfm.Nodes()) // most cubic, for contrast
	if err != nil {
		log.Fatal(err)
	}
	aligned := diam2.Torus3D{X: mlfm.H, Y: mlfm.H + 1, Z: mlfm.H}
	fmt.Printf("%s: %d nodes; aligned torus %dx%dx%d (most-cubic would be %dx%dx%d)\n",
		mlfm.Name(), mlfm.Nodes(), aligned.X, aligned.Y, aligned.Z, tor.X, tor.Y, tor.Z)

	// FigExchange lays the exchange on this aligned torus for an MLFM
	// and runs it under MIN, INR and the preset's adaptive constants.
	fig, err := diam2.FigExchange(diam2.SmallPresets()[1:2], diam2.ExNN, diam2.QuickScale())
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range fig.Curves {
		res := c.Runs[0] // an exchange bar is a one-run curve
		fmt.Printf("%-4s effective throughput %5.1f%%  (avg %.2f hops, %4.1f%% indirect)\n",
			c.Alg, res.Throughput*100, res.AvgHops, res.IndirectFrac*100)
	}
	fmt.Println("\nThe adaptive algorithm routes X and Z minimally and sends Y")
	fmt.Println("exchanges over indirect paths, which is what closes the gap to")
	fmt.Println("full bandwidth in the paper's Fig. 14.")
}
