"""The forwarding table on its own: lookup, learning, forgetting,
advertising — no router, no simulator."""

from repro.routing.ads import Advertisement, Entry, SummaryRow
from repro.routing.table import NOT_OURS, Change, Route, RouteTable, Summary

PERIOD = 200_000
MISS = 3


def ad(router_id=7, entries=(), summaries=(), area=0, period_ns=PERIOD):
    return Advertisement(
        router_id=router_id, priority=50, root=(50, router_id), root_cost=0,
        period_ns=period_ns, root_age_ns=0, entries=tuple(entries),
        version=3 if (area or summaries) else 2, area=area,
        summaries=tuple(summaries),
    )


# ----------------------------------------------------------------- lookup
def test_specifics_beat_summaries_and_best_forwardable_summary_wins():
    table = RouteTable(attached=(0, 1, 2), area=1)
    table.summaries[2] = Summary(2, lo=10, hi=20, metric=1, via=0, router=5)
    table.summaries[3] = Summary(3, lo=15, hi=30, metric=4, via=1, router=6)
    assert table.egress_for(2, 12) == 0       # only area 2 covers it
    assert table.egress_for(2, 17) == 0       # both cover: best metric
    # The best summary points back out the ingress: take the detour.
    assert table.egress_for(0, 17) == 1
    # Every covering summary points back: decline, do not blackhole.
    assert table.egress_for(0, 12) == NOT_OURS
    assert table.egress_for(2, 31) is None    # no phantom coverage
    table.routes[17] = Route(via=2, metric=9, router=8)
    assert table.egress_for(0, 17) == 2       # a specific always wins


# --------------------------------------------------------------- learning
def test_advertisement_installs_distance_vector_routes():
    table = RouteTable(attached=(0, 1))
    changes = table.learn(
        ad(entries=[Entry(3, 0, frozenset({4, 5})), Entry(1, 0, None)]),
        ingress=1, now=100,
    )
    assert changes == [
        Change("route", "learned", dict(segment=3, via=1, metric=1)),
    ]
    assert table.routes == {
        3: Route(via=1, metric=1, router=7, last_heard=100,
                 period_ns=PERIOD, live=frozenset({4, 5})),
    }  # attached segment 1 was not overridden by the advertisement


def test_route_replacement_rules():
    table = RouteTable(attached=(0, 1))
    table.learn(ad(7, [Entry(3, 2, None)]), ingress=1, now=0)
    # A worse offer from another router changes nothing ...
    assert table.learn(ad(8, [Entry(3, 5, None)]), ingress=0, now=10) == []
    assert (table.routes[3].router, table.routes[3].metric) == (7, 3)
    # ... a strictly better one takes over silently (not newly learned) ...
    assert table.learn(ad(8, [Entry(3, 0, None)]), ingress=0, now=20) == []
    assert (table.routes[3].via, table.routes[3].metric) == (0, 1)
    # ... and a refresh from the router in use tracks its metric upward
    # and restamps the route.
    table.learn(ad(8, [Entry(3, 4, frozenset({1}))]), ingress=0, now=500)
    route = table.routes[3]
    assert (route.metric, route.last_heard, route.live) == (
        5, 500, frozenset({1}))


def test_specifics_are_installed_from_same_area_senders_only():
    table = RouteTable(attached=(0, 1), area=1)
    foreign = ad(entries=[Entry(9, 0, None)], area=2,
                 summaries=[SummaryRow(2, 8, 12, 0, PERIOD)])
    changes = table.learn(foreign, ingress=1, now=0)
    assert 9 not in table.routes
    assert changes == [Change("summary", "learned", dict(
        area=2, lo=8, hi=12, via=1, metric=1))]
    # Our own area's summary is ignored: we hold its specifics.
    assert table.learn(
        ad(summaries=[SummaryRow(1, 0, 5, 0, PERIOD)], area=1), 1, 0
    ) == []
    assert list(table.summaries) == [2]


def test_equal_cost_same_via_summaries_merge_and_widen():
    """Same-area peers on one ring advertise complementary ranges; the
    one keyed slot must cover their union."""
    table = RouteTable(attached=(0, 1), area=1)
    table.learn(ad(7, summaries=[SummaryRow(2, 10, 12, 0, PERIOD)], area=1),
                ingress=1, now=0)
    changes = table.learn(
        ad(8, summaries=[SummaryRow(2, 13, 15, 0, 3 * PERIOD)], area=1),
        ingress=1, now=50,
    )
    assert changes == [Change("summary", "widened",
                              dict(area=2, lo=13, hi=15))]
    held = table.summaries[2]
    assert (held.lo, held.hi, held.last_heard) == (10, 15, 50)
    assert held.router == 7                   # the slot keeps its owner
    assert held.period_ns == 3 * PERIOD       # aged on the slower cadence
    # A refresh inside the held range restamps but reports nothing.
    assert table.learn(
        ad(7, summaries=[SummaryRow(2, 10, 12, 0, PERIOD)], area=1), 1, 90
    ) == []
    assert (held.lo, held.hi, held.last_heard) == (10, 15, 90)
    # Same cost over another port is neither a merge nor a takeover.
    table.learn(ad(9, summaries=[SummaryRow(2, 0, 99, 0, PERIOD)], area=1),
                ingress=0, now=95)
    assert (held.lo, held.hi, held.via) == (10, 15, 1)


def test_summary_metric_moving_on_the_path_in_use_is_tracked():
    table = RouteTable(attached=(0, 1), area=1)
    row = lambda metric: [SummaryRow(2, 10, 12, metric, PERIOD)]
    table.learn(ad(7, summaries=row(1), area=1), ingress=1, now=0)
    table.learn(ad(7, summaries=row(4), area=1), ingress=1, now=10)
    assert table.summaries[2].metric == 5     # worse, but it is our path
    table.learn(ad(8, summaries=row(4), area=1), ingress=0, now=20)
    assert table.summaries[2].router == 7     # a stranger's tie: ignored
    table.learn(ad(8, summaries=row(0), area=1), ingress=0, now=30)
    assert (table.summaries[2].router, table.summaries[2].via) == (8, 0)


# ------------------------------------------------------------- forgetting
def test_entries_expire_on_their_own_cadence():
    table = RouteTable(attached=(0, 1), area=1)
    slow = 10 * PERIOD
    table.learn(
        ad(7, [Entry(3, 0, None)], [SummaryRow(2, 10, 12, 0, slow)], area=1),
        ingress=1, now=0,
    )
    deadline = MISS * PERIOD
    assert table.expire(deadline, PERIOD, MISS) == []
    # The fast peer's specific goes at the fast deadline; the summary it
    # relayed carries a slow origin's cadence and must not flap with it.
    assert table.expire(deadline + 1, PERIOD, MISS) == [
        Change("route", "expired", dict(segment=3, via=1)),
    ]
    assert table.routes == {} and 2 in table.summaries
    # A slow *listener* stretches every deadline to its own period.
    assert table.expire(MISS * slow, 20 * PERIOD, MISS) == []
    assert table.expire(MISS * slow + 1, PERIOD, MISS) == [
        Change("summary", "expired", dict(area=2, via=1)),
    ]


def test_withdraw_by_port_and_by_router():
    table = RouteTable(attached=(0, 1), area=1)
    table.routes.update({
        3: Route(via=1, metric=1, router=7),
        4: Route(via=1, metric=1, router=8),
        5: Route(via=0, metric=1, router=7),
    })
    table.summaries[2] = Summary(2, 10, 12, metric=1, via=1, router=8)
    assert table.withdraw_via(1, router=8) == [
        Change("route", "withdrawn", dict(segment=4, via=1)),
        Change("summary", "withdrawn", dict(area=2, via=1)),
    ]
    assert table.withdraw_via(1) == [
        Change("route", "withdrawn", dict(segment=3, via=1)),
    ]
    assert list(table.routes) == [5] and not table.summaries
    table.clear()
    assert not table.routes


# ------------------------------------------------------------ advertising
def test_advertised_rows_apply_split_horizon_and_the_role_gate():
    table = RouteTable(attached=(0, 1, 2))
    table.routes.update({
        7: Route(via=1, metric=1, router=5, live=frozenset({1, 2, 9})),
        8: Route(via=0, metric=2, router=6),
        9: Route(via=2, metric=3, router=4, live=None),
    })
    rows, summaries = table.advertised(0, forwarding=(0, 1, 2),
                                       period_ns=PERIOD, summarize=False)
    # The live set rides the row; 8 was learned from segment 0 itself.
    assert rows == [Entry(7, 1, frozenset({1, 2, 9})), Entry(9, 3, None)]
    assert summaries == []
    # A route via a blocked port is not ours to offer.
    rows, _ = table.advertised(0, forwarding=(0, 2), period_ns=PERIOD,
                               summarize=False)
    assert rows == [Entry(9, 3, None)]


def test_advertised_summaries_cover_only_what_the_port_can_carry():
    table = RouteTable(attached=(4, 5, 6), area=1)
    table.routes[2] = Route(via=5, metric=1, router=5)
    table.summaries[2] = Summary(2, 20, 29, metric=2, via=6, router=9,
                                 period_ns=3 * PERIOD)
    table.summaries[3] = Summary(3, 30, 39, metric=1, via=4, router=8)
    _, summaries = table.advertised(4, forwarding=(4, 5, 6),
                                    period_ns=PERIOD, summarize=True)
    assert summaries == [
        SummaryRow(1, 2, 6, 0, PERIOD),           # own area, minus port 4
        SummaryRow(2, 20, 29, 2, 3 * PERIOD),     # slower cadence carried
    ]                                             # area 3: split horizon
    # Port 5 blocked: its segment and the route behind it leave the range.
    _, summaries = table.advertised(4, forwarding=(4, 6), period_ns=PERIOD,
                                    summarize=True)
    assert summaries[0] == SummaryRow(1, 6, 6, 0, PERIOD)
    # Nothing carriable at all: no own-area row rather than a dead one.
    assert table.advertised(4, forwarding=(4,), period_ns=PERIOD,
                            summarize=True) == ([], [])
