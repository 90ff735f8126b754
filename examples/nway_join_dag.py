"""N-way joins as a multi-wave shuffle DAG.

TPC-H Query 5 joins six relations (LINEITEM, ORDERS, CUSTOMER, SUPPLIER,
NATION, REGION).  The optimizer picks a join order from the exchange cost
model, pushes each relation's predicates and projections into its scan, and
lowers the tree into a DAG physical plan: one map wave repartitions every
relation by its first join key through the write-combined exchange, then one
join wave runs per DAG stage — middle stages re-emit their output into the
exchange under the next stage's key, the final stage computes the partial
aggregates.  Combined-object offsets travel through the result-queue
barrier, so no wave ever issues a LIST/HEAD request to discover its input.

This example runs Q5 end to end through the public facade, prints the wave
schedule that executed, and shows the request profile of the exchange plane.

Run with:  python examples/nway_join_dag.py
"""

import repro
from repro.workload.queries import q5_sql
from repro.workload.tpch import (
    generate_customer_dataset,
    generate_lineitem_dataset,
    generate_nation_dataset,
    generate_orders_dataset,
    generate_region_dataset,
    generate_supplier_dataset,
)


def main() -> None:
    session = repro.connect(memory_mib=2048)
    s3 = session.env.s3
    for generate in (
        generate_lineitem_dataset,
        generate_orders_dataset,
        generate_customer_dataset,
        generate_supplier_dataset,
        generate_nation_dataset,
        generate_region_dataset,
    ):
        session.register(generate(s3, scale_factor=0.002))
    print("tables:", ", ".join(session.tables()))

    result = session.sql(q5_sql(), num_workers=4)

    print("\n-- schedule " + "-" * 50)
    print(result.explain())

    print("\n-- result " + "-" * 52)
    for row in result.rows:
        print(f"  nation {row['n_nationkey']:>2}  volume {row['volume']:>12,.0f}")

    stats = result.statistics
    exchange = stats.exchange
    print("\n-- execution " + "-" * 49)
    print(f"  join DAG stages:        {stats.dag_stages}")
    print(f"  workers (all waves):    {stats.num_workers}")
    print(f"  probe/build/out rows:   {stats.join_probe_rows}/"
          f"{stats.join_build_rows}/{stats.join_output_rows}")
    print(f"  exchange PUTs:          {exchange.put_requests} "
          f"({exchange.combined_put_requests} combined)")
    print(f"  exchange GETs:          {exchange.get_requests}")
    print(f"  discovery LIST/HEAD:    {exchange.list_requests + exchange.head_requests}")
    print(f"  gc'd exchange objects:  {stats.gc_objects_deleted}")
    print(f"  modelled latency:       {stats.latency_seconds:.2f} s")
    print(f"  modelled cost:          {stats.cost_total * 100:.4f} cents")


if __name__ == "__main__":
    main()
