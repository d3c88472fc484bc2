package docstore

import (
	"fmt"
	"testing"
	"time"
)

// benchObservation is a document shaped like the ones the ingest path
// stores (goflow.DataManager.toDocAnon): 17 fields, a handful of
// enumeration-like strings, two times, six floats.
func benchObservation(i int) Doc {
	at := time.Unix(1_466_526_615+int64(i), int64(i%1000)*1e6).UTC()
	return Doc{
		IDField:        fmt.Sprintf("d%x", 1<<20+i),
		"appId":        "SC",
		"userId":       fmt.Sprintf("anon-%032x", i%200),
		"deviceModel":  fmt.Sprintf("Model-%d", i%23),
		"appVersion":   "1.3." + fmt.Sprint(i%4),
		"mode":         []string{"manual", "journey", "background"}[i%3],
		"spl":          40 + float64(i%400)/10,
		"activity":     []string{"still", "walking", "vehicle", "bicycle", "unknown"}[i%5],
		"activityConf": float64(i%100) / 100,
		"sensedAt":     at,
		"receivedAt":   at.Add(1500 * time.Millisecond),
		"localized":    true,
		"provider":     []string{"gps", "network", "fused"}[i%3],
		"lat":          48.8 + float64(i%1000)/1e4,
		"lon":          2.3 + float64(i%977)/1e4,
		"accuracyM":    5 + float64(i%60),
		"zone":         fmt.Sprintf("FR751%02d", i%20+1),
	}
}

func benchMutations() (one, batch *Mutation) {
	docs := make([]Doc, 50)
	for i := range docs {
		docs[i] = benchObservation(i)
	}
	one = &Mutation{Op: OpInsert, Collection: "observations", ID: docs[0][IDField].(string), Doc: docs[0]}
	batch = &Mutation{Op: OpInsertMany, Collection: "observations", Docs: docs}
	return one, batch
}

var benchSink any

// BenchmarkMutationCodec times one WAL record payload each way, for a
// one-document insert and for a 50-document insert-many, and reports
// the payload size per document.
func BenchmarkMutationCodec(b *testing.B) {
	one, batch := benchMutations()
	for _, tc := range []struct {
		name string
		m    *Mutation
		docs int
	}{{"one", one, 1}, {"batch50", batch, 50}} {
		payload, err := EncodeMutation(tc.m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(payload))/float64(tc.docs), "B/doc")
			for i := 0; i < b.N; i++ {
				p, err := EncodeMutation(tc.m)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = p
			}
		})
		b.Run("decode/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := decodeMutation(payload, nil)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = m
			}
		})
	}
}
