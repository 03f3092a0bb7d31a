// Command qbismlint runs the repo's static-analysis suite (see
// internal/lint and DESIGN.md §17) over every package under the
// module root and exits non-zero if any unsuppressed diagnostic
// remains.
//
// Usage:
//
//	qbismlint [-C dir] [-v] [-json] [-ignores] [-ignore-budget N]
//
// Diagnostics print as file:line:col: check: message. Suppressed
// findings (covered by a //lint:ignore <check> <reason> directive on
// the same or preceding line) are listed only with -v. The final line
// is always the one-line summary:
//
//	qbismlint: N files, M diagnostics, K suppressed in D
//
// -json switches the whole report to the stable machine-readable
// schema (one object; diagnostics carry file/line/col/check/message/
// suppressed/suppress_reason). -ignores instead inventories every
// //lint:ignore directive in the tree with its reason; with
// -ignore-budget N the command exits 1 unless the directive count is
// exactly N. Above N a new suppression needs a reviewed budget raise;
// below N the freed room must be checked in, so it cannot be spent
// unreviewed later. This is how `make lint-ignores` ratchets
// suppressions down.
package main

import (
	"flag"
	"fmt"
	"os"

	"qbism/internal/lint"
)

func main() {
	dir := flag.String("C", ".", "module root to analyze (directory containing go.mod)")
	verbose := flag.Bool("v", false, "also list suppressed diagnostics with their reasons, and per-analyzer timings")
	jsonOut := flag.Bool("json", false, "emit the report as JSON (stable schema) instead of text")
	ignores := flag.Bool("ignores", false, "inventory every //lint:ignore directive instead of reporting diagnostics")
	budget := flag.Int("ignore-budget", -1, "with -ignores: exit 1 unless the directive count equals this budget")
	flag.Parse()

	res, err := lint.CheckModule(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qbismlint:", err)
		os.Exit(2)
	}

	if *ignores {
		for _, ig := range res.Ignores {
			fmt.Printf("%s:%d: %s: %s\n", ig.File, ig.Line, ig.Check, ig.Reason)
		}
		fmt.Printf("qbismlint: %d ignore directives", len(res.Ignores))
		if *budget >= 0 {
			fmt.Printf(" (budget %d)", *budget)
		}
		fmt.Println()
		switch n := len(res.Ignores); {
		case *budget < 0:
		case n > *budget:
			fmt.Fprintf(os.Stderr, "qbismlint: ignore budget exceeded: %d > %d — remove a suppression or raise the checked-in budget with justification\n",
				n, *budget)
			os.Exit(1)
		case n < *budget:
			fmt.Fprintf(os.Stderr, "qbismlint: ignore budget %d is above the %d directives in the tree — check in %d as the budget\n",
				*budget, n, n)
			os.Exit(1)
		}
		return
	}

	if *jsonOut {
		out, jerr := res.JSON()
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "qbismlint:", jerr)
			os.Exit(2)
		}
		fmt.Printf("%s\n", out)
		if len(res.Unsuppressed()) > 0 {
			os.Exit(1)
		}
		return
	}

	for _, d := range res.Diagnostics {
		if d.Suppressed {
			if *verbose {
				fmt.Printf("%s [suppressed: %s]\n", d, d.SuppressReason)
			}
			continue
		}
		fmt.Println(d)
	}
	if *verbose {
		for _, t := range res.Timings {
			fmt.Printf("qbismlint: %-12s %s\n", t.Name, t.Elapsed)
		}
	}
	fmt.Println(res.Summary())
	if len(res.Unsuppressed()) > 0 {
		os.Exit(1)
	}
}
