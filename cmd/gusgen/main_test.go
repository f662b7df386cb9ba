package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenSegmentFiles pins every byte gusgen writes for a small segment
// data set with synopses: a faster generator or writer must produce the
// same files.
func TestGoldenSegmentFiles(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-orders", "2000", "-format", "segment", "-synopsis", "0.02", "-seed", "1", "-out", dir}
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"customer.gusseg":     "62eb22ba26ec139e0cb67183a6aded557148609aae246248a26709c855e887c2",
		"customer_syn.gussyn": "1097087217ce39a2a3db8fb611f8867219f2065dda7e70eda3cf21dc3836e9be",
		"lineitem.gusseg":     "279f8512aa4c6cda4be0bf229902ba0bc1c07f0efeb2c45b6386913a278d1c13",
		"lineitem_syn.gussyn": "bb8a708f1915d6cbabea79616614417c28fd4685c773058b477d0b75115ca0ea",
		"orders.gusseg":       "5eb37225b8ad27083aad96bfc7cf03333c8a7fa6bda3d93ef313a058513e7e44",
		"orders_syn.gussyn":   "d969e495c2cdbc51b04af8425b9f586cd17c9630663105738d34d72a68eeddf4",
		"part.gusseg":         "df2f32bc18707dc07eef49949ae8d501723cf9a0840f171f13fa1221c83fdfd0",
		"part_syn.gussyn":     "69bf1180e3c0900ace4abe2176d197383fb90862ae5bf8cdeec437c5aea34478",
		"synopses.json":       "20200cb2c157299e320e99b9aac226c08c775dc6c679950fcfed45ecb64181b1",
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("wrote %d files %v, want %d", len(entries), names, len(want))
	}
	for name, sum := range want {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got := sha256.Sum256(data)
		if h := hex.EncodeToString(got[:]); h != sum {
			t.Errorf("%s: sha256 %s, want %s", name, h, sum)
		}
	}
}

func TestRejectsBadFlags(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-format", "parquet", "-out", dir},
		{"-synopsis", "0.1", "-out", dir},
		{"-format", "segment", "-synopsis", "2", "-out", dir},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}
