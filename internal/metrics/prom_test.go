package metrics

import (
	"bytes"
	"strings"
	"testing"
)

type promInner struct {
	Reads int64 `json:"reads" prom:"reads_total,counter"`
	Skip  int64 `json:"skip"`
}

type promShard struct {
	Shard int `prom:"shard,label"`
	promInner
	Depth   float64    `prom:"depth,gauge"`
	Name    string     `prom:"name,label"`
	Latency *Histogram `prom:"latency_seconds,histogram,/1e9"`
}

type promTree struct {
	Ready    bool        `prom:"ready,gauge"`
	Device   promInner   `prom:"device_"`
	Shards   []promShard `prom:"shard_"`
	Absent   *promInner  `prom:"absent_"`
	Present  *promInner  `prom:"present_"`
	LastNS   int64       `prom:"refresh_duration_seconds,gauge,/1e9"`
	Enters   *int64      `prom:"ring_enters_total,counter"`
	NoEnters *int64      `prom:"never_total,counter"`
	Sizes    Histogram   `prom:"batch_size,histogram"`
	Count    uint32      `prom:"count,gauge"`
	Untagged int         `json:"untagged"`
	hidden   int
}

func TestWritePrometheus(t *testing.T) {
	enters := int64(7)
	tree := promTree{
		Ready:  true,
		Device: promInner{Reads: 12, Skip: 99},
		Shards: []promShard{
			{Shard: 0, promInner: promInner{Reads: 5}, Depth: 1.5, Name: "fast",
				Latency: &Histogram{Upper: []float64{1000, 2000}, Counts: []int64{3, 0, 1}, Sum: 5e9}},
			{Shard: 1, promInner: promInner{Reads: 7}, Depth: 2, Name: `slow "one"`},
		},
		Present: &promInner{Reads: 1},
		LastNS:  2_500_000_000,
		Enters:  &enters,
		Sizes:   Histogram{Upper: []float64{1, 2}, Counts: []int64{4, 2, 0}, Sum: 8},
		Count:   3,
		hidden:  1,
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, "x_", &tree); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE x_ready gauge
x_ready 1
# TYPE x_device_reads_total counter
x_device_reads_total 12
# TYPE x_shard_reads_total counter
x_shard_reads_total{shard="0",name="fast"} 5
x_shard_reads_total{shard="1",name="slow \"one\""} 7
# TYPE x_shard_depth gauge
x_shard_depth{shard="0",name="fast"} 1.5
x_shard_depth{shard="1",name="slow \"one\""} 2
# TYPE x_shard_latency_seconds histogram
x_shard_latency_seconds_bucket{shard="0",name="fast",le="1e-06"} 3
x_shard_latency_seconds_bucket{shard="0",name="fast",le="2e-06"} 3
x_shard_latency_seconds_bucket{shard="0",name="fast",le="+Inf"} 4
x_shard_latency_seconds_sum{shard="0",name="fast"} 5
x_shard_latency_seconds_count{shard="0",name="fast"} 4
# TYPE x_present_reads_total counter
x_present_reads_total 1
# TYPE x_refresh_duration_seconds gauge
x_refresh_duration_seconds 2.5
# TYPE x_ring_enters_total counter
x_ring_enters_total 7
# TYPE x_batch_size histogram
x_batch_size_bucket{le="1"} 4
x_batch_size_bucket{le="2"} 6
x_batch_size_bucket{le="+Inf"} 6
x_batch_size_sum 8
x_batch_size_count 6
# TYPE x_count gauge
x_count 3
`
	if got := buf.String(); got != want {
		t.Errorf("rendered:\n%s\nwant:\n%s", got, want)
	}
}

// TestWritePrometheusRejects: what a wrong declaration looks like is
// decided when the tree is rendered, which the surface test does for the
// server's whole tree.
func TestWritePrometheusRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		tree any
		want string
	}{
		{"two fields, one family", struct {
			A int `prom:"reads_total,counter"`
			B int `prom:"reads_total,counter"`
		}{}, "declared by both .A and .B"},
		{"one family by two paths", struct {
			A promInner `prom:"dev_"`
			B promInner `prom:"dev_"`
		}{}, "x_dev_reads_total declared by both"},
		{"unknown kind", struct {
			A int `prom:"a,summary"`
		}{}, `unknown kind "summary"`},
		{"bad divisor", struct {
			A int `prom:"a,gauge,/ten"`
		}{}, `divisor: strconv.ParseFloat: parsing "ten"`},
		{"junk after kind", struct {
			A int `prom:"a,gauge,seconds"`
		}{}, "not name,kind"},
		{"string as a value", struct {
			A string `prom:"a,gauge"`
		}{}, "cannot be a gauge"},
		{"histogram of the wrong type", struct {
			A promInner `prom:"a,histogram"`
		}{}, "not a metrics.promInner"},
		{"prefix on a scalar", struct {
			A int `prom:"a_"`
		}{}, "cannot descend into a int"},
	} {
		err := WritePrometheus(&bytes.Buffer{}, "x_", tc.tree)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
