// All-to-all comparison: the Fig. 13 experiment — one A2A exchange on
// each diameter-two topology under minimal, indirect random and
// adaptive routing — with the effective throughput read from the
// figure's typed curves rather than its rendered table.
package main

import (
	"fmt"
	"log"

	"diam2"
)

func main() {
	fig, err := diam2.FigExchange(diam2.SmallPresets(), diam2.ExA2A, diam2.QuickScale())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("One all-to-all exchange per topology (Fig. 13), quick scale:")
	fmt.Printf("%-14s %-6s %10s %12s\n", "topology", "alg", "eff. thr.", "cycles")
	for _, c := range fig.Curves {
		res := c.Runs[0] // an exchange bar is a one-run curve
		fmt.Printf("%-14s %-6s %9.1f%% %12d\n", c.Topo, c.Alg, res.Throughput*100, res.Cycles)
	}
	fmt.Println("\nExpected shape (paper): MIN and adaptive near the uniform")
	fmt.Println("saturation point, INR at roughly half of it.")
}
