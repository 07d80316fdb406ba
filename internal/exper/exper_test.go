package exper

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// quickGolden is the committed `xhcrepro -quick` report; regenerate it
// with `make quick-golden`.
const quickGolden = "testdata/quick_report.md"

// TestAllExperimentsQuick runs every experiment in quick mode and checks
// the paper's qualitative claims against the produced metrics. This is the
// repository's end-to-end reproduction gate: the rendered document must
// also equal the committed quick report byte for byte, so no simulated
// number moves without a deliberate re-baseline.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take tens of seconds")
	}
	doc, reports, err := RenderAll(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAsGolden(doc); err != nil {
		t.Error(err)
	}
	if len(reports) != len(All()) {
		t.Fatalf("reports = %d, want %d", len(reports), len(All()))
	}
	byID := map[string]*Report{}
	for _, r := range reports {
		byID[r.ID] = r
		if r.Text == "" {
			t.Errorf("%s: empty text", r.ID)
		}
	}

	m := func(id, key string) float64 {
		r, ok := byID[id]
		if !ok {
			t.Fatalf("missing report %s", id)
		}
		v, ok := r.Metrics[key]
		if !ok {
			t.Fatalf("%s: missing metric %s (have %v)", id, key, r.Metrics)
		}
		return v
	}

	ge := func(id, key string, bound float64) {
		if v := m(id, key); v < bound {
			t.Errorf("%s: %s = %.3f, want >= %.3f", id, key, v, bound)
		}
	}
	le := func(id, key string, bound float64) {
		if v := m(id, key); v > bound {
			t.Errorf("%s: %s = %.3f, want <= %.3f", id, key, v, bound)
		}
	}

	// Fig 1a: distance classes are ordered (cross-socket slowest).
	for _, plat := range []string{"Epyc-2P", "ARM-N1"} {
		in := m("fig1a", plat+"_intra-numa_us")
		xs := m("fig1a", plat+"_cross-socket_us")
		if xs <= in {
			t.Errorf("fig1a %s: cross-socket (%.2f) should exceed intra-numa (%.2f)", plat, xs, in)
		}
	}

	// Fig 1b: flat degrades with rank count; hierarchy relieves congestion.
	ge("fig1b", "flat_degradation", 1.5)
	ge("fig1b", "hier_over_flat_at_full", 1.5)

	// Fig 3: XPMEM beats KNEM beats ... CICO worst; no-regcache is awful.
	ge("fig3", "bcast_knem_over_xpmem", 1.0)
	ge("fig3", "bcast_cma_over_xpmem", 1.5)
	ge("fig3", "bcast_cico_over_xpmem", 1.02)
	ge("fig3", "p2p_nocache_over_cached", 1.3)

	// Fig 4: atomics collapse under fan-in (paper: 23x at 160 ranks; we
	// require a large multiple).
	ge("fig4", "atomics_over_single_writer_at_160", 4)

	// Fig 7: the stock benchmark flatters the flat tree at medium sizes;
	// the tree barely changes; with dirtying the tree wins.
	ge("fig7", "flat_mb_over_stock_64K", 1.3)
	if m("fig7", "tree_mb_over_stock_64K") >= m("fig7", "flat_mb_over_stock_64K") {
		t.Error("fig7: caching should flatter the flat tree more than the hierarchical one")
	}
	ge("fig7", "flat_over_tree_mb_64K", 1.0)

	// Fig 8: headline broadcast results.
	for _, plat := range []string{"Epyc-1P", "Epyc-2P", "ARM-N1"} {
		ge("fig8", plat+"_tree_speedup_vs_tuned_1M", 1.2)
		ge("fig8", plat+"_tree_speedup_vs_smhc_1M", 1.5)
		ge("fig8", plat+"_tree_speedup_vs_flat_1M", 1.05)
	}
	// Small messages: flat wins on the shared-LLC machines, loses on ARM.
	le("fig8", "Epyc-1P_flat_over_tree_4B", 1.05)
	ge("fig8", "ARM-N1_flat_over_tree_4B", 1.3)

	// Tree-over-flat benefit grows with machine size.
	s1 := m("fig8", "Epyc-1P_tree_speedup_vs_flat_1M")
	s2 := m("fig8", "Epyc-2P_tree_speedup_vs_flat_1M")
	s3 := m("fig8", "ARM-N1_tree_speedup_vs_flat_1M")
	if !(s1 < s2 && s2 < s3) {
		t.Errorf("fig8: tree/flat speedups should grow with machine size: %.2f, %.2f, %.2f", s1, s2, s3)
	}

	// Fig 9: tuned swings with layout and root; XHC stays robust.
	ge("fig9a", "tuned_mapnuma_over_mapcore_1M", 1.3)
	le("fig9a", "xhc_mapnuma_over_mapcore_1M", 1.15)
	ge("fig9b", "tuned_root10_over_root0_64K", 1.03)
	le("fig9b", "xhc_root10_over_root0_64K", 1.1)

	// Table II: XHC's distance profile is exactly 1/6/56 in EVERY
	// scenario (the paper's "any" row), while tuned's profile swings with
	// the mapping policy and the root.
	for _, sc := range []string{"map-core", "map-numa", "root=10"} {
		if m("tab2", "xhc-tree_"+sc+"_inter_socket") != 1 ||
			m("tab2", "xhc-tree_"+sc+"_inter_numa") != 6 ||
			m("tab2", "xhc-tree_"+sc+"_intra_numa") != 56 {
			t.Errorf("tab2 xhc-tree %s: got %v/%v/%v, want 1/6/56", sc,
				m("tab2", "xhc-tree_"+sc+"_inter_socket"),
				m("tab2", "xhc-tree_"+sc+"_inter_numa"),
				m("tab2", "xhc-tree_"+sc+"_intra_numa"))
		}
	}
	tunedSwings := m("tab2", "tuned_map-numa_intra_numa") != m("tab2", "tuned_map-core_intra_numa") ||
		m("tab2", "tuned_map-numa_inter_numa") != m("tab2", "tuned_map-core_inter_numa")
	if !tunedSwings {
		t.Error("tab2: tuned profile should change between map-core and map-numa")
	}
	if m("tab2", "tuned_root=10_intra_numa") == m("tab2", "tuned_map-core_intra_numa") &&
		m("tab2", "tuned_root=10_inter_numa") == m("tab2", "tuned_map-core_inter_numa") {
		t.Error("tab2: tuned profile should change with the root")
	}

	// Fig 10: with flags on separate lines the flat variant collapses;
	// with a shared line it stays competitive (Epyc LLC assistance).
	ge("fig10", "flat_separated_over_flat_shared_4B", 1.3)
	ge("fig10", "flat_separated_over_tree_separated_4B", 1.03)
	le("fig10", "flat_shared_over_tree_shared_4B", 1.2)

	// Fig 11: Allreduce headlines.
	for _, plat := range []string{"Epyc-1P", "Epyc-2P", "ARM-N1"} {
		ge("fig11", plat+"_tree_speedup_vs_tuned_1M", 1.03)
		ge("fig11", plat+"_tree_speedup_vs_xbrc_1M", 1.1)
		// Unlike broadcast, flat never wins small allreduce.
		ge("fig11", plat+"_flat_over_tree_4B", 1.0)
	}

	// Figs 12-14: XHC at least matches the next-best component.
	ge("fig12", "ARM-N1_speedup_over_next_best", 0.95)
	ge("fig13", "ARM-N1_speedup_over_next_best_b", 1.0)
	ge("fig14", "ARM-N1_speedup_over_next_best", 0.97)

	// The combined document contains every section.
	for _, id := range IDs() {
		if !strings.Contains(doc, "## "+id) {
			t.Errorf("document missing section %s", id)
		}
	}
}

// sameAsGolden compares doc with the committed quick report and names
// the first line that differs.
func sameAsGolden(doc string) error {
	want, err := os.ReadFile(quickGolden)
	if err != nil {
		return err
	}
	if doc == string(want) {
		return nil
	}
	got, exp := strings.Split(doc, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			return fmt.Errorf("quick report differs from %s at line %d:\n got: %q\nwant: %q\n(re-baseline with `make quick-golden` only for a deliberate model change)",
				quickGolden, i+1, g, e)
		}
	}
	return fmt.Errorf("quick report differs from %s", quickGolden)
}

func TestRegistryShape(t *testing.T) {
	ids := IDs()
	if len(ids) < 14 {
		t.Fatalf("only %d experiments registered: %v", len(ids), ids)
	}
	if ids[0] != "tab1" {
		t.Errorf("first experiment = %s, want tab1", ids[0])
	}
	if _, ok := ByID("fig8"); !ok {
		t.Error("fig8 not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("bogus id found")
	}
}
