package metrics

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
)

// A stat is declared once, as a field of the snapshot struct its owner
// fills, tagged with its JSON key and its Prometheus name:
//
//	Reads    int64     `json:"reads" prom:"reads_total,counter"`
//	Ready    bool      `json:"ready" prom:"ready,gauge"`
//	LastNS   int64     `json:"last_duration_ns" prom:"refresh_duration_seconds,gauge,/1e9"`
//	Sizes    Histogram `json:"-" prom:"batch_size,histogram"`
//	Shard    int       `json:"shard" prom:"shard,label"`
//	Device   ssd.Stats `json:"device" prom:"device_"`
//
// encoding/json renders the value for /v1/stats and WritePrometheus
// renders the same value for /metrics. A family's name is the prefixes of
// the structs on the way down, then the leaf's own name. On a struct,
// pointer or slice field the tag is just that prefix (possibly empty); an
// embedded struct is descended without one; any other untagged field is
// not exported. A nil pointer is skipped, so a block that is absent from
// the JSON is absent here. A slice renders one sample per element, told
// apart by the element's label fields. "/x" divides the value (and a
// histogram's bounds and sum) by x, for a family whose unit differs from
// the field's.

// WritePrometheus writes every tagged stat under v in the Prometheus text
// exposition format, one "# TYPE" line per family. It fails on a malformed
// tag and on a family name declared by two different fields.
func WritePrometheus(w io.Writer, prefix string, v any) error {
	p := promWriter{byName: map[string]*promFamily{}}
	if err := p.walk(reflect.ValueOf(v), prefix, "", ""); err != nil {
		return err
	}
	for _, f := range p.families {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s", f.name, f.kind, f.samples.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

type promFamily struct {
	name, kind string
	decl       string // field path that declared it, slice indexes left out
	samples    bytes.Buffer
}

type promWriter struct {
	families []*promFamily
	byName   map[string]*promFamily
}

// family returns the family a leaf at field path decl writes to.
func (p *promWriter) family(name, kind, decl string) (*promFamily, error) {
	f := p.byName[name]
	if f == nil {
		f = &promFamily{name: name, kind: kind, decl: decl}
		p.byName[name] = f
		p.families = append(p.families, f)
	} else if f.decl != decl {
		return nil, fmt.Errorf("metrics: family %s declared by both %s and %s", name, f.decl, decl)
	}
	return f, nil
}

// walk renders the struct (or the structs a pointer or slice leads to) at v.
func (p *promWriter) walk(v reflect.Value, prefix, labels, decl string) error {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return nil
		}
		return p.walk(v.Elem(), prefix, labels, decl)
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if err := p.walk(v.Index(i), prefix, labels, decl); err != nil {
				return err
			}
		}
		return nil
	case reflect.Struct:
	default:
		return fmt.Errorf("metrics: %s: cannot descend into a %s", decl, v.Kind())
	}
	type leaf struct {
		field reflect.Value
		tag   []string // name, kind, /divisor
		decl  string
	}
	var leaves []leaf
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		tag, tagged := sf.Tag.Lookup("prom")
		if !tagged && !sf.Anonymous {
			continue
		}
		l := leaf{field: v.Field(i), tag: strings.Split(tag, ","), decl: decl + "." + sf.Name}
		if len(l.tag) > 3 || len(l.tag) == 3 && !strings.HasPrefix(l.tag[2], "/") {
			return fmt.Errorf("metrics: %s: tag %q is not name,kind[,/divisor]", l.decl, tag)
		}
		if len(l.tag) > 1 && l.tag[1] == "label" {
			labels = strings.TrimPrefix(labels+","+l.tag[0]+"="+strconv.Quote(fmt.Sprint(l.field)), ",")
			continue
		}
		leaves = append(leaves, l)
	}
	// Leaves render once every label of this struct is known.
	for _, l := range leaves {
		name := prefix + l.tag[0]
		if len(l.tag) == 1 {
			if err := p.walk(l.field, name, labels, l.decl); err != nil {
				return err
			}
			continue
		}
		div := 1.0
		if len(l.tag) == 3 {
			var err error
			if div, err = strconv.ParseFloat(l.tag[2][1:], 64); err != nil {
				return fmt.Errorf("metrics: %s: divisor: %v", l.decl, err)
			}
		}
		if err := p.sample(l.field, name, l.tag[1], labels, l.decl, div); err != nil {
			return err
		}
	}
	return nil
}

// sample renders one leaf: a counter or gauge line, or a histogram's
// cumulative buckets with its sum and count.
func (p *promWriter) sample(v reflect.Value, name, kind, labels, decl string, div float64) error {
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return nil
		}
		v = v.Elem()
	}
	series := ""
	if labels != "" {
		series, labels = "{"+labels+"}", labels+","
	}
	var text string
	switch {
	case kind == "histogram":
		if v.Type() != reflect.TypeOf(Histogram{}) || !v.CanInterface() {
			return fmt.Errorf("metrics: %s: a histogram is an exported metrics.Histogram, not a %s", decl, v.Type())
		}
	case kind != "counter" && kind != "gauge":
		return fmt.Errorf("metrics: %s: unknown kind %q", decl, kind)
	case v.Kind() == reflect.Bool:
		text = "0"
		if v.Bool() {
			text = "1"
		}
	case v.CanInt() && div == 1:
		text = strconv.FormatInt(v.Int(), 10)
	case v.CanUint() && div == 1:
		text = strconv.FormatUint(v.Uint(), 10)
	case v.CanInt():
		text = formatFloat(float64(v.Int()) / div)
	case v.CanUint():
		text = formatFloat(float64(v.Uint()) / div)
	case v.CanFloat():
		text = formatFloat(v.Float() / div)
	default:
		return fmt.Errorf("metrics: %s: a %s cannot be a %s", decl, v.Kind(), kind)
	}
	f, err := p.family(name, kind, decl)
	if err != nil {
		return err
	}
	if kind != "histogram" {
		fmt.Fprintf(&f.samples, "%s%s %s\n", name, series, text)
		return nil
	}
	h := v.Interface().(Histogram)
	var cum int64
	for i, c := range h.Counts {
		cum += c
		le := "+Inf"
		if i < len(h.Upper) {
			le = formatFloat(h.Upper[i] / div)
		}
		fmt.Fprintf(&f.samples, "%s_bucket{%sle=%q} %d\n", name, labels, le, cum)
	}
	fmt.Fprintf(&f.samples, "%s_sum%s %s\n%s_count%s %d\n", name, series, formatFloat(h.Sum/div), name, series, cum)
	return nil
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
