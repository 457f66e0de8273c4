package task

import "testing"

// benchTask builds a 4-layer DAG with fan-out, ~16 subtasks.
func benchTask(b *testing.B) *Task {
	b.Helper()
	t := New("bench", 1000)
	id := 0
	var prev []int
	for layer := 0; layer < 4; layer++ {
		width := 4
		if layer == 0 {
			width = 1 // unique root
		}
		var cur []int
		for k := 0; k < width; k++ {
			idx := t.AddSubtask(Subtask{Name: "s" + string(rune('a'+id)), Resource: "r", ExecMs: 1})
			id++
			cur = append(cur, idx)
			for _, p := range prev {
				_ = t.AddEdge(p, idx)
			}
		}
		prev = cur
	}
	return t
}

func BenchmarkPathsEnumeration(b *testing.B) {
	t := benchTask(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.Paths(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWeightsPathNormalized(b *testing.B) {
	t := benchTask(b)
	if _, err := t.Paths(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.Weights(WeightPathNormalized); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCriticalPath(b *testing.B) {
	t := benchTask(b)
	lats := make([]float64, len(t.Subtasks))
	for i := range lats {
		lats[i] = float64(i + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := t.CriticalPathMs(lats); err != nil {
			b.Fatal(err)
		}
	}
}
