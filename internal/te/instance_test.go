package te

import (
	"reflect"
	"testing"

	"flexile/internal/graph"
	"flexile/internal/topo"
	"flexile/internal/tunnels"
)

// TestNewInstanceTunnelsPerPair: NewInstance runs the class policies
// concurrently across pairs, and every inst.Tunnels[k][i] must still be
// the class policy called on pair i alone, single- and two-class, on a few
// Table 2 topologies. Under -race it also checks that the built-in
// policies share nothing mutable.
func TestNewInstanceTunnelsPerPair(t *testing.T) {
	single := []Class{{Name: "single", Tunnels: tunnels.SingleClass(3)}}
	two := []Class{
		{Name: "high", Tunnels: tunnels.HighPriority(3)},
		{Name: "low", Tunnels: tunnels.LowPriority(3, 3)},
	}
	for _, name := range []string{"Sprint", "B4", "IBM", "ATT"} {
		tp := topo.MustLoad(name)
		for _, classes := range [][]Class{single, two} {
			inst := NewInstance(tp, classes)
			for k, c := range classes {
				if len(inst.Tunnels[k]) != len(inst.Pairs) {
					t.Fatalf("%s %s: %d tunnel sets for %d pairs", name, c.Name, len(inst.Tunnels[k]), len(inst.Pairs))
				}
				for i, pr := range inst.Pairs {
					if want := c.Tunnels(tp.G, pr[0], pr[1]); !reflect.DeepEqual(inst.Tunnels[k][i], want) {
						t.Fatalf("%s %s pair %v: tunnels %v, want %v", name, c.Name, pr, inst.Tunnels[k][i], want)
					}
				}
			}
		}
	}
}

// TestNewInstancePolicyPanic: a policy that panics on one pair makes
// NewInstance panic with the policy's own value, as a sequential build
// would, instead of returning an instance with a hole in it.
func TestNewInstancePolicyPanic(t *testing.T) {
	tp := topo.MustLoad("IBM")
	boom := func(g *graph.Graph, u, v int) []graph.Path {
		if u == 3 && v == 11 {
			panic("policy failed on 3-11")
		}
		return tunnels.SingleClass(3)(g, u, v)
	}
	defer func() {
		if r := recover(); r != "policy failed on 3-11" {
			t.Fatalf("recovered %v, want the policy's panic value", r)
		}
	}()
	NewInstance(tp, []Class{
		{Name: "high", Tunnels: tunnels.HighPriority(3)},
		{Name: "low", Tunnels: boom},
	})
	t.Fatal("NewInstance returned although a policy panicked")
}
