package scan

import (
	"crypto/sha256"
	"fmt"
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuits"
)

// insertGolden holds, per catalog circuit, a digest of the scan
// insertion at 1, 2 and 4 chains: the .bench text of C_scan plus every
// bookkeeping field. The digests were first taken from the separate
// single-chain and multi-chain builders this package used to have, so
// they pin that one builder reproduces both byte for byte.
var insertGolden = map[string][3]string{
	"s27":    {"c329aa4f1c7ea073", "1d71beb90328f064", "83951354f8f088b8"},
	"s208":   {"ad960c3a44d21439", "f18e9137b5de02f5", "564be7d66eec5a33"},
	"s298":   {"c4f2f984b7cdb481", "2502ac8a70a9485b", "9cae18d607ca5a77"},
	"s344":   {"0eb0b96e3f445b42", "c243154df416a3ae", "38e55a8f16f176c2"},
	"s382":   {"87c529cbbaa83fa4", "0c92eb3795e70a18", "5d43a1c138997b13"},
	"s386":   {"e86435453a7dcd4c", "399a9ac849f1b883", "720dc4abe2864acf"},
	"s400":   {"632c188e83ef4928", "6cbcbca3c8ea475a", "3dd31091bbb118d7"},
	"s420":   {"28cc19613f41d0ae", "d42b15eff2d48e20", "840c9098d615a74b"},
	"s444":   {"8b5328488acdc15f", "974ac5a0eb59ae49", "7a8c35b8077dc3a5"},
	"s510":   {"bb8a0b28a9a27ce7", "b3b03009f9b322d9", "e0198e95555bb38c"},
	"s526":   {"a1573d58af54d62f", "e5306a0ed3dbc3e3", "26ac3bfef0fcf5b1"},
	"s641":   {"d95b5eee35644ed4", "89cb6a9d2fb28802", "65615c53bd22e2ef"},
	"s820":   {"0b0d635586708c4b", "2a1bf440e34d8ad1", "3d4efd491690a7fd"},
	"s953":   {"f379656e6a2b7747", "d6e82cb81f6a48e7", "965211103afc0bd9"},
	"s1196":  {"a2dae6d07e3f7c15", "a8a277d407a874b3", "13d0a9bdcca2019b"},
	"s1423":  {"9b11a73d9c1cbf5b", "8cbcac064258c56b", "766ac81d63e96098"},
	"s1488":  {"1d2b9b4ab23d828c", "e702e5be5f526b74", "344292835e9e2c78"},
	"s5378":  {"fcefd36fdea46b85", "4495d0aa3f1f1ec5", "4a4a8947475f7d58"},
	"s35932": {"7ba0d1250f697efb", "e3bafe70978e46bd", "570eac87241dc6f3"},
	"b01":    {"8b18fe15b59bd89d", "141d6b1eb653e11c", "64306e4a6d769942"},
	"b02":    {"36045244ab6c2da4", "75420cbff030294f", "8f3fe9817cf391b6"},
	"b03":    {"5092921bb2021530", "e5388145d72ddc64", "e8dc4e364f80b938"},
	"b04":    {"7cdb0f62d336a304", "6b992f06bb5f5552", "df78af3c8eaee69e"},
	"b05":    {"6e165e3a6342417c", "fc1688976b49737f", "1df595b156ac938c"},
	"b06":    {"021666fd7fc96811", "59f3cff3c8308f99", "fdfce3692c45d2a0"},
	"b07":    {"02fae6b5c82a98a2", "5c8ff3a7dab165e9", "bdd2b9e31d4a8e01"},
	"b08":    {"67416e7c943d0436", "d0a0aebf5e676afd", "cae53a2ff6f90b40"},
	"b09":    {"c25e394c8b1c7b82", "5f97eef206d13741", "ce364bda540cfaea"},
	"b10":    {"f84a656b4e320ff4", "ee2d717c01f5b513", "2eda1fbb46391ec1"},
	"b11":    {"59a25ab6d812b124", "4257a5a5bd5e6c31", "9a5e6e86723bc753"},
	"b12":    {"51ac5877ee5230c8", "c4c674c83188dbe6", "3ae257b9854638a3"},
	"b13":    {"794539ed758e5f60", "714dddb6f5f7ff79", "3b63c3a3fde4849b"},
}

// TestInsertGolden pins scan insertion for every catalog circuit at 1,
// 2 and 4 chains: netlist, signal names and bookkeeping.
func TestInsertGolden(t *testing.T) {
	names := circuits.Names()
	if len(names) != len(insertGolden) {
		t.Fatalf("%d catalog circuits, %d golden entries", len(names), len(insertGolden))
	}
	for _, name := range names {
		c, err := circuits.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range []int{1, 2, 4} {
			sc, err := InsertChains(c, n)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			io.WriteString(h, bench.Format(sc.Scan))
			fmt.Fprintf(h, "%d %v %v %v %v %v %q %q\n", sc.SelPI, sc.InpPIs, sc.OutPOs,
				sc.ChainOf, sc.PosOf, sc.Lens, sc.SelName, sc.InpNames)
			if got := fmt.Sprintf("%x", h.Sum(nil))[:16]; got != insertGolden[name][i] {
				t.Errorf("%s at %d chains: digest %s, want %s", name, n, got, insertGolden[name][i])
			}
		}
	}
}
