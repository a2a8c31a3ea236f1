package graph

// Unreachable is the distance reported for disconnected vertex pairs.
const Unreachable = -1

// BFS returns the distance (hop count) from src to every vertex;
// unreachable vertices get Unreachable.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.n)
	g.BFSInto(src, dist, make([]int, 0, g.n))
	return dist
}

// BFSInto is BFS with caller-provided storage: dist must have length
// N, queue is scratch space (its contents are overwritten). It enables
// allocation-free all-pairs sweeps.
func (g *Graph) BFSInto(src int, dist []int, queue []int) {
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		for _, v := range g.adj[u] {
			if dist[v] == Unreachable {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
}

// DistanceMatrix computes all-pairs shortest-path hop distances.
// The result is an N x N matrix; entry [u][v] is Unreachable when v is
// not reachable from u.
func (g *Graph) DistanceMatrix() [][]int {
	m := make([][]int, g.n)
	flat := make([]int, g.n*g.n)
	queue := make([]int, 0, g.n)
	for u := 0; u < g.n; u++ {
		m[u] = flat[u*g.n : (u+1)*g.n]
		g.BFSInto(u, m[u], queue)
	}
	return m
}

// Diameter returns the maximum finite pairwise distance, and whether
// the graph is connected. For a disconnected graph the diameter over
// the reachable pairs is returned with ok == false.
func (g *Graph) Diameter() (d int, ok bool) {
	ok = true
	dist := make([]int, g.n)
	queue := make([]int, 0, g.n)
	for u := 0; u < g.n; u++ {
		g.BFSInto(u, dist, queue)
		for _, dv := range dist {
			if dv == Unreachable {
				ok = false
			} else if dv > d {
				d = dv
			}
		}
	}
	return d, ok
}

// Connected reports whether the graph is connected (true for N <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// CountMinimalPaths returns the number of distinct shortest paths from
// src to dst (0 if unreachable, 1 if src == dst).
func (g *Graph) CountMinimalPaths(src, dst int) int {
	if src == dst {
		return 1
	}
	dist := make([]int, g.n)
	cnt := make([]int, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	cnt[src] = 1
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[dst] != Unreachable && dist[u] >= dist[dst] {
			break
		}
		for _, v := range g.adj[u] {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				cnt[v] = cnt[u]
				queue = append(queue, v)
			} else if dist[v] == dist[u]+1 {
				cnt[v] += cnt[u]
			}
		}
	}
	return cnt[dst]
}

// Girth returns the length of the shortest cycle, or 0 for a forest.
// It runs a BFS from every vertex, detecting the first cross edge at
// equal or adjacent depth — O(V*E), fine at topology scale.
func (g *Graph) Girth() int {
	best := 0
	dist := make([]int, g.n)
	parent := make([]int, g.n)
	queue := make([]int, 0, g.n)
	for src := 0; src < g.n; src++ {
		for i := range dist {
			dist[i] = Unreachable
			parent[i] = -1
		}
		dist[src] = 0
		queue = append(queue[:0], src)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.adj[u] {
				if v == parent[u] {
					continue
				}
				if dist[v] == Unreachable {
					dist[v] = dist[u] + 1
					parent[v] = u
					queue = append(queue, v)
					continue
				}
				// Cycle through src of length dist[u]+dist[v]+1 (it
				// may not pass through src, in which case it is
				// found shorter from another start vertex).
				if c := dist[u] + dist[v] + 1; best == 0 || c < best {
					best = c
				}
			}
		}
	}
	return best
}
