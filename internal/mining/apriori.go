// Package mining implements the second future direction of the paper's
// Section 7: "the integration of data mining and hypothesis testing
// techniques to support investigative queries like 'find PET study
// intensity patterns that are associated with any neurological condition
// in any subpopulation'", using the association-rule framework of the
// paper's citation [1] (Agrawal, Imielinski, Swami, SIGMOD 1993).
//
// Transactions are studies; items are boolean study features such as
// "high activity in the hippocampus", "age >= 40", or "female". Apriori
// finds frequent itemsets, from which rules with sufficient confidence
// are derived.
package mining

import (
	"fmt"
	"sort"
	"strings"
)

// Item is one boolean feature, e.g. "high:hippocampus" or "sex:F".
type Item string

// Transaction is one study's feature set.
type Transaction struct {
	ID    int64
	Items []Item
}

// ItemSet is a sorted set of items.
type ItemSet []Item

// String joins the items for display.
func (s ItemSet) String() string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = string(it)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// key returns a canonical map key for the set.
func (s ItemSet) key() string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = string(it)
	}
	return strings.Join(parts, "\x00")
}

// subsetOf reports whether every item of s appears in the (sorted)
// transaction items.
func (s ItemSet) subsetOf(items []Item) bool {
	i := 0
	for _, it := range items {
		if i == len(s) {
			return true
		}
		if it == s[i] {
			i++
		}
	}
	return i == len(s)
}

// FrequentSet is an itemset with its support count.
type FrequentSet struct {
	Items   ItemSet
	Support int // number of transactions containing the set
}

// Rule is an association rule X -> Y.
type Rule struct {
	Antecedent ItemSet
	Consequent ItemSet
	Support    float64 // fraction of transactions containing X ∪ Y
	Confidence float64 // support(X ∪ Y) / support(X)
	Lift       float64 // confidence / support(Y)
}

// String renders the rule.
func (r Rule) String() string {
	return fmt.Sprintf("%s => %s (sup %.2f, conf %.2f, lift %.2f)",
		r.Antecedent, r.Consequent, r.Support, r.Confidence, r.Lift)
}

// FrequentItemSets runs Apriori: all itemsets appearing in at least
// minSupport transactions, level by level with candidate pruning.
func FrequentItemSets(txns []Transaction, minSupport int) ([]FrequentSet, error) {
	if minSupport < 1 {
		return nil, fmt.Errorf("mining: minSupport must be >= 1, got %d", minSupport)
	}
	// Normalize transactions: sorted, deduplicated items.
	norm := make([][]Item, len(txns))
	for i, t := range txns {
		items := append([]Item(nil), t.Items...)
		sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
		items = dedupe(items)
		norm[i] = items
	}

	// Level 1.
	counts := make(map[Item]int)
	for _, items := range norm {
		for _, it := range items {
			counts[it]++
		}
	}
	var current []ItemSet
	var out []FrequentSet
	for it, c := range counts {
		if c >= minSupport {
			current = append(current, ItemSet{it})
			out = append(out, FrequentSet{Items: ItemSet{it}, Support: c})
		}
	}
	sortSets(current)

	// Levels k > 1.
	for len(current) > 0 {
		candidates := generateCandidates(current)
		if len(candidates) == 0 {
			break
		}
		var next []ItemSet
		for _, cand := range candidates {
			support := 0
			for _, items := range norm {
				if cand.subsetOf(items) {
					support++
				}
			}
			if support >= minSupport {
				next = append(next, cand)
				out = append(out, FrequentSet{Items: cand, Support: support})
			}
		}
		sortSets(next)
		current = next
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Items) != len(out[j].Items) {
			return len(out[i].Items) < len(out[j].Items)
		}
		return out[i].Items.key() < out[j].Items.key()
	})
	return out, nil
}

func dedupe(items []Item) []Item {
	if len(items) == 0 {
		return items
	}
	out := items[:1]
	for _, it := range items[1:] {
		if it != out[len(out)-1] {
			out = append(out, it)
		}
	}
	return out
}

func sortSets(sets []ItemSet) {
	sort.Slice(sets, func(i, j int) bool { return sets[i].key() < sets[j].key() })
}

// generateCandidates joins frequent (k-1)-sets sharing a (k-2)-prefix
// and prunes candidates with an infrequent subset (the Apriori property).
func generateCandidates(frequent []ItemSet) []ItemSet {
	freq := make(map[string]bool, len(frequent))
	for _, s := range frequent {
		freq[s.key()] = true
	}
	var out []ItemSet
	seen := make(map[string]bool)
	for i := 0; i < len(frequent); i++ {
		for j := i + 1; j < len(frequent); j++ {
			a, b := frequent[i], frequent[j]
			if len(a) != len(b) || !samePrefix(a, b) {
				continue
			}
			cand := append(append(ItemSet{}, a...), b[len(b)-1])
			sort.Slice(cand, func(x, y int) bool { return cand[x] < cand[y] })
			k := cand.key()
			if seen[k] {
				continue
			}
			seen[k] = true
			if allSubsetsFrequent(cand, freq) {
				out = append(out, cand)
			}
		}
	}
	return out
}

func samePrefix(a, b ItemSet) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func allSubsetsFrequent(cand ItemSet, freq map[string]bool) bool {
	for drop := range cand {
		sub := make(ItemSet, 0, len(cand)-1)
		sub = append(sub, cand[:drop]...)
		sub = append(sub, cand[drop+1:]...)
		if !freq[sub.key()] {
			return false
		}
	}
	return true
}

// Rules derives association rules from transactions: every partition of
// each frequent itemset into antecedent => consequent meeting the
// confidence threshold. minSupport is an absolute transaction count;
// minConfidence is in (0, 1].
func Rules(txns []Transaction, minSupport int, minConfidence float64) ([]Rule, error) {
	if minConfidence <= 0 || minConfidence > 1 {
		return nil, fmt.Errorf("mining: minConfidence must be in (0,1], got %v", minConfidence)
	}
	fsets, err := FrequentItemSets(txns, minSupport)
	if err != nil {
		return nil, err
	}
	supports := make(map[string]int, len(fsets))
	for _, fs := range fsets {
		supports[fs.Items.key()] = fs.Support
	}
	n := float64(len(txns))
	if n == 0 {
		return nil, nil
	}
	var rules []Rule
	for _, fs := range fsets {
		if len(fs.Items) < 2 {
			continue
		}
		// Enumerate non-trivial antecedent subsets by bitmask.
		k := len(fs.Items)
		for mask := 1; mask < (1<<k)-1; mask++ {
			var ante, cons ItemSet
			for i := 0; i < k; i++ {
				if mask>>i&1 == 1 {
					ante = append(ante, fs.Items[i])
				} else {
					cons = append(cons, fs.Items[i])
				}
			}
			anteSup, ok := supports[ante.key()]
			if !ok || anteSup == 0 {
				continue
			}
			conf := float64(fs.Support) / float64(anteSup)
			if conf < minConfidence {
				continue
			}
			consSup := supports[cons.key()]
			lift := 0.0
			if consSup > 0 {
				lift = conf / (float64(consSup) / n)
			}
			rules = append(rules, Rule{
				Antecedent: ante,
				Consequent: cons,
				Support:    float64(fs.Support) / n,
				Confidence: conf,
				Lift:       lift,
			})
		}
	}
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].Confidence != rules[j].Confidence {
			return rules[i].Confidence > rules[j].Confidence
		}
		return rules[i].Support > rules[j].Support
	})
	return rules, nil
}
