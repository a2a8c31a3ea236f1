// Custom topologies: load a network from an edge list, run the
// paper's all-to-all exchange over it, and export the topology as
// Graphviz DOT — the extension features for using the simulator beyond
// the paper's own topologies.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"diam2"
)

// A small custom network: a 6-router prism (two triangles joined by a
// matching), 4 end-nodes per router.
const prism = `# prism: routers 0-2 and 3-5 form triangles; i -- i+3
routers 6
nodes 0 4
nodes 1 4
nodes 2 4
nodes 3 4
nodes 4 4
nodes 5 4
0 1
1 2
0 2
3 4
4 5
3 5
0 3
1 4
2 5
`

func main() {
	tp, err := diam2.ReadEdgeList(strings.NewReader(prism), "prism")
	if err != nil {
		log.Fatal(err)
	}
	cost := diam2.CostOf(tp)
	fmt.Printf("loaded %s: %d nodes on %d routers (%.2f ports/node)\n",
		tp.Name(), cost.Nodes, cost.Routers, cost.PortsPerNode)

	// The A2A exchange of Section 4.4: every node sends 4 packets to
	// every other node.
	ex := diam2.AllToAll(tp.Nodes(), 4, rand.New(rand.NewSource(1)))
	// The prism has diameter 2, so Valiant routing needs 4 hop-indexed
	// VCs; size the switch from the algorithm's requirement.
	alg := diam2.NewValiant(tp)
	net, err := diam2.NewNetwork(tp, diam2.TestSimConfig(alg.NumVCs()))
	if err != nil {
		log.Fatal(err)
	}
	eng, err := diam2.NewEngine(net, alg, ex)
	if err != nil {
		log.Fatal(err)
	}
	tel := diam2.NewTelemetryCollector(diam2.TelemetryOptions{})
	eng.AttachTelemetry(tel)
	if !eng.RunUntilDrained(1_000_000) {
		log.Fatal("exchange did not drain")
	}
	eng.Finish()
	res := eng.Results()
	fmt.Printf("exchanged %d packets in %d cycles (avg latency %.0f cycles, %.2f hops)\n",
		res.Delivered, res.Cycles, res.AvgLatency, res.AvgHops)
	if links := tel.Snapshot().Links; len(links) > 0 {
		fmt.Printf("hottest link r%d->r%d at %.1f%% utilization\n",
			links[0].From, links[0].To, links[0].Load*100)
	}

	// Export for visualization.
	fmt.Println("\nGraphviz DOT:")
	if err := diam2.WriteDOT(os.Stdout, tp); err != nil {
		log.Fatal(err)
	}
}
