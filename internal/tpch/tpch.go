// Package tpch generates TPC-H-style data: the lineitem / orders /
// customer / part tables the paper's running examples query, with the same
// schema shape, key structure and foreign-key fan-out.
//
// Substitution note: the paper evaluates against
// TPC-H data; the official dbgen tool is unavailable offline, so this
// package synthesizes statistically equivalent tables — FK multiplicities
// (1–7 lineitems per order), uniform keys, and price/discount/tax columns
// in TPC-H's ranges — which preserves the join selectivities and aggregate
// shapes the estimator's behaviour depends on. Lineitem lineage IDs use the
// paper's own §6.2 encoding: l_orderkey·10 + l_linenumber.
package tpch

import (
	"fmt"

	"github.com/sampling-algebra/gus/internal/lineage"
	"github.com/sampling-algebra/gus/internal/relation"
	"github.com/sampling-algebra/gus/internal/stats"
)

// Config controls generation.
type Config struct {
	// Orders is the orders-table cardinality; at TPC-H scale factor s it
	// would be 1,500,000·s. Lineitem averages ~4× that.
	Orders int
	// Customers is the customer-table cardinality (TPC-H: 150,000·s).
	Customers int
	// Parts is the part-table cardinality (TPC-H: 200,000·s).
	Parts int
	// Seed makes generation deterministic.
	Seed uint64
	// PriceSkew, when > 0, mixes a heavy tail into extended prices so that
	// variance experiments can exercise skewed aggregates (0 = uniform).
	PriceSkew float64
}

// ScaleFactor returns the configuration matching TPC-H scale factor sf.
func ScaleFactor(sf float64, seed uint64) Config {
	return Config{
		Orders:    max(1, int(1500000*sf)),
		Customers: max(1, int(150000*sf)),
		Parts:     max(1, int(200000*sf)),
		Seed:      seed,
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Tables bundles the generated relations.
type Tables struct {
	Lineitem *relation.Relation
	Orders   *relation.Relation
	Customer *relation.Relation
	Part     *relation.Relation
}

// All returns the relations in a stable order.
func (t *Tables) All() []*relation.Relation {
	return []*relation.Relation{t.Lineitem, t.Orders, t.Customer, t.Part}
}

// Generate builds the four tables.
func Generate(cfg Config) (*Tables, error) {
	if cfg.Orders <= 0 || cfg.Customers <= 0 || cfg.Parts <= 0 {
		return nil, fmt.Errorf("tpch: cardinalities must be positive: %+v", cfg)
	}
	rng := stats.NewRNG(cfg.Seed ^ 0x7c15)

	customer := relation.MustNew("customer", relation.MustSchema(
		relation.Column{Name: "c_custkey", Kind: relation.KindInt},
		relation.Column{Name: "c_nationkey", Kind: relation.KindInt},
		relation.Column{Name: "c_acctbal", Kind: relation.KindFloat},
	))
	for i := 1; i <= cfg.Customers; i++ {
		if err := customer.AppendWithID(lineage.TupleID(i), relation.Tuple{
			relation.Int(int64(i)),
			relation.Int(int64(rng.Intn(25))),
			relation.Float(-999.99 + 10999.98*rng.Float64()),
		}); err != nil {
			return nil, err
		}
	}

	part := relation.MustNew("part", relation.MustSchema(
		relation.Column{Name: "p_partkey", Kind: relation.KindInt},
		relation.Column{Name: "p_retailprice", Kind: relation.KindFloat},
	))
	for i := 1; i <= cfg.Parts; i++ {
		if err := part.AppendWithID(lineage.TupleID(i), relation.Tuple{
			relation.Int(int64(i)),
			relation.Float(900 + float64(i%200000)/10),
		}); err != nil {
			return nil, err
		}
	}

	orders := relation.MustNew("orders", relation.MustSchema(
		relation.Column{Name: "o_orderkey", Kind: relation.KindInt},
		relation.Column{Name: "o_custkey", Kind: relation.KindInt},
		relation.Column{Name: "o_totalprice", Kind: relation.KindFloat},
	))
	lineitem := relation.MustNew("lineitem", relation.MustSchema(
		relation.Column{Name: "l_orderkey", Kind: relation.KindInt},
		relation.Column{Name: "l_linenumber", Kind: relation.KindInt},
		relation.Column{Name: "l_partkey", Kind: relation.KindInt},
		relation.Column{Name: "l_quantity", Kind: relation.KindFloat},
		relation.Column{Name: "l_extendedprice", Kind: relation.KindFloat},
		relation.Column{Name: "l_discount", Kind: relation.KindFloat},
		relation.Column{Name: "l_tax", Kind: relation.KindFloat},
	))
	for o := 1; o <= cfg.Orders; o++ {
		cust := rng.Intn(cfg.Customers) + 1
		lines := rng.Intn(7) + 1 // TPC-H: 1..7 lineitems per order
		var orderTotal float64
		for ln := 1; ln <= lines; ln++ {
			qty := float64(rng.Intn(50) + 1)
			price := 100 + 900*rng.Float64()
			if cfg.PriceSkew > 0 && rng.Float64() < 0.02 {
				price *= 1 + cfg.PriceSkew*rng.Float64()*50
			}
			ext := qty * price / 10
			disc := 0.01 * float64(rng.Intn(11))
			tax := 0.01 * float64(rng.Intn(9))
			orderTotal += ext * (1 - disc) * (1 + tax)
			// §6.2's lineage encoding for lineitem.
			id := lineage.TupleID(uint64(o)*10 + uint64(ln))
			if err := lineitem.AppendWithID(id, relation.Tuple{
				relation.Int(int64(o)),
				relation.Int(int64(ln)),
				relation.Int(int64(rng.Intn(cfg.Parts) + 1)),
				relation.Float(qty),
				relation.Float(ext),
				relation.Float(disc),
				relation.Float(tax),
			}); err != nil {
				return nil, err
			}
		}
		if err := orders.AppendWithID(lineage.TupleID(o), relation.Tuple{
			relation.Int(int64(o)),
			relation.Int(int64(cust)),
			relation.Float(orderTotal),
		}); err != nil {
			return nil, err
		}
	}

	t := &Tables{Lineitem: lineitem, Orders: orders, Customer: customer, Part: part}
	for _, r := range t.All() {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	return t, nil
}
