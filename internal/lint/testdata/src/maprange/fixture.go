// Package maprange is a kenlint fixture for the map-iteration-order
// analyzer.
package maprange

import (
	"bytes"
	"fmt"
	"sort"
)

func appendsWithoutSort(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `append to "out" inside range over map`
	}
	return out
}

type stats struct{ reported []string }

// appendsToField leaks map order into a struct field just as into a
// local slice.
func appendsToField(m map[string]int, st *stats) {
	for k := range m {
		st.reported = append(st.reported, k) // want `append to "st.reported" inside range over map`
	}
}

// fieldThenSort restores the order before the field is read.
func fieldThenSort(m map[string]int) stats {
	var st stats
	for k := range m {
		st.reported = append(st.reported, k)
	}
	sort.Strings(st.reported)
	return st
}

// perIterationStruct builds a fresh struct each iteration.
func perIterationStruct(m map[string][]string) int {
	n := 0
	for _, ks := range m {
		var st stats
		for _, k := range ks {
			st.reported = append(st.reported, k)
		}
		n += len(st.reported)
	}
	return n
}

// collectThenSort is the canonical fix: the order the elements arrived in
// no longer matters once they are sorted.
func collectThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortSliceAlsoCounts(m map[string]float64) []float64 {
	var vals []float64
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

func printsRows(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want `fmt\.Printf inside range over map`
	}
}

func emitsRows(m map[string]int) string {
	var b bytes.Buffer
	for k := range m {
		b.WriteString(k) // want `WriteString call inside range over map`
	}
	return b.String()
}

func sendsInOrder(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want `channel send inside range over map`
	}
}

// perIterationSlice is rebuilt from scratch each iteration and lands in a
// map: its internal order comes from the inner ordered loop, not from map
// iteration order.
func perIterationSlice(m map[string][]int) map[string][]int {
	out := make(map[string][]int, len(m))
	for k, rows := range m {
		kept := make([]int, 0, len(rows))
		for i := 0; i < len(rows); i += 2 {
			kept = append(kept, rows[i])
		}
		out[k] = kept
	}
	return out
}

// commutative accumulation does not leak iteration order.
func sums(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v
	}
	return total
}

// filling another map is order-independent too.
func inverts(m map[string]int) map[int]string {
	inv := make(map[int]string, len(m))
	for k, v := range m {
		inv[v] = k
	}
	return inv
}
