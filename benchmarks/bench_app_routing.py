"""Experiment A6 -- SAT-based FPGA detailed routing (§3, [29, 30]).

Routability vs track count on random channels: the SAT decision flips
from UNSAT to SAT exactly at the channel density (the interval-graph
optimum), reproducing the feasibility-threshold shape of the
SAT-based layout papers.
"""

from repro.apps.routing import (
    channel_density,
    random_channel,
    route,
    validate_routing,
)
from repro.experiments.tables import format_table

#: The whole table; a change that moves the search re-pins it and
#: reports the rows it moved.
EXPECTED = [
    ["channel0 (8 nets)", 5, "3:U 4:U 5:S 6:S 7:S"],
    ["channel1 (12 nets)", 6, "4:U 5:U 6:S 7:S 8:S"],
    ["channel2 (16 nets)", 8, "6:U 7:U 8:S 9:S 10:S"],
]


def test_app_routing(benchmark, show):
    rows = []
    for seed, num_nets in ((0, 8), (1, 12), (2, 16)):
        nets = random_channel(num_nets, columns=20, seed=seed)
        density = channel_density(nets)
        verdicts = []
        for tracks in range(max(1, density - 2), density + 3):
            result = route(nets, tracks)
            verdicts.append((tracks, result.routable))
            if result.routable:
                assert validate_routing(nets, result.assignment)
            # Crossover exactly at the density certificate.
            assert result.routable == (tracks >= density)
        rows.append([f"channel{seed} ({num_nets} nets)", density,
                     " ".join(f"{t}:{'S' if r else 'U'}"
                              for t, r in verdicts)])
    show(format_table(
        ["instance", "density (optimum)",
         "tracks:verdict sweep (U=unroutable, S=routable)"], rows,
        title="A6 -- routability vs track count (crossover at channel "
              "density)"))
    assert rows == EXPECTED

    nets = random_channel(12, columns=20, seed=1)
    density = channel_density(nets)
    result = benchmark(route, nets, density)
    assert result.routable is True
