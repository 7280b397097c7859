package mapreduce

import (
	"strings"
	"testing"
)

func BenchmarkWordCount(b *testing.B) {
	input := lines(strings.Repeat("alpha beta gamma delta ", 500))
	cfg := DefaultConfig(4)
	cfg.SplitBytes = 1 << 10
	e, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(wordCount(), input); err != nil {
			b.Fatal(err)
		}
	}
}
