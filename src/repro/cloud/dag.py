"""EM workflows as DAGs, and their decomposition into engine fragments.

CloudMatcher 1.0's key idea (Section 5.1): "break each submitted EM
workflow into multiple DAG fragments, where each fragment performs only
one kind of task, e.g., interaction with the user, batch processing of
data, crowdsourcing ... then execute each fragment on an appropriate
execution engine".  This module builds the workflow DAG (acyclic by
construction: a call may only run after calls added before it) and
computes the same-kind fragment decomposition, with a union-find, plus
the fragment-level DAG (a plain successor map) that the metamanager
schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cloud.services import Service, ServiceKind, ServiceRegistry
from repro.exceptions import WorkflowError
from repro.postprocess.clustering import UnionFind
from repro.runtime import OperatorGraph

if TYPE_CHECKING:
    from repro.cloud.context import WorkflowContext


@dataclass(frozen=True)
class ServiceCall:
    """One node of an EM workflow: a named invocation of a service."""

    node_id: str
    service: Service

    @property
    def kind(self) -> ServiceKind:
        return self.service.kind


class EMWorkflow:
    """A DAG of service calls for one EM task.

    Each call records the tuple of calls it runs after, and ``after=`` may
    name only calls added earlier, so the graph is acyclic by construction
    (the same guarantee :class:`~repro.runtime.OperatorGraph` gives).
    """

    def __init__(self, name: str):
        self.name = name
        self._calls: dict[str, ServiceCall] = {}
        self._predecessors: dict[str, tuple[str, ...]] = {}

    def add_call(
        self, node_id: str, service: Service, after: list[str] | None = None
    ) -> ServiceCall:
        """Add a service call, depending on the given predecessor nodes."""
        if node_id in self._calls:
            raise WorkflowError(f"duplicate workflow node {node_id!r}")
        predecessors = tuple(dict.fromkeys(after or ()))
        for predecessor in predecessors:
            if predecessor not in self._calls:
                raise WorkflowError(f"unknown predecessor {predecessor!r}")
        call = ServiceCall(node_id, service)
        self._calls[node_id] = call
        self._predecessors[node_id] = predecessors
        return call

    def call(self, node_id: str) -> ServiceCall:
        return self._calls[node_id]

    def predecessors(self, node_id: str) -> tuple[str, ...]:
        """The calls ``node_id`` runs after, as given to :meth:`add_call`."""
        return self._predecessors[node_id]

    def successors(self) -> dict[str, list[str]]:
        """Successor map over every call, both levels in insertion order."""
        successors: dict[str, list[str]] = {node: [] for node in self._calls}
        for node, predecessors in self._predecessors.items():
            for predecessor in predecessors:
                successors[predecessor].append(node)
        return successors

    def topological_calls(self) -> list[ServiceCall]:
        """All calls in a valid execution order (generation by generation)."""
        return [self._calls[node] for node in _generation_order(self.successors())]

    def to_runtime_graph(self, context: "WorkflowContext") -> OperatorGraph:
        """Compile the whole workflow to a runtime operator graph.

        Each service call becomes one operator over the context's artifact
        dict (the runtime store *is* ``context.artifacts``); the operator
        returns the service's simulated human/crowd seconds, which the
        runtime records as ``sim_seconds`` on the node's events.
        """
        graph = OperatorGraph(self.name)
        for call in self.topological_calls():
            graph.add(
                call.node_id,
                _service_operator(call, context),
                deps=tuple(sorted(self.predecessors(call.node_id))),
                description=call.service.description,
                checkpoint=False,  # services write undeclared context slots
            )
        return graph

    def __len__(self) -> int:
        return len(self._calls)


def _service_operator(call: ServiceCall, context: "WorkflowContext"):
    """Wrap a service call as a runtime operator body.

    The store handed to the operator is ``context.artifacts`` itself, so
    services keep communicating through ``ctx.put``/``ctx.get`` unchanged.
    """

    def operator(store) -> float:
        return call.service.run(context)

    return operator


@dataclass
class Fragment:
    """A maximal same-kind group of workflow nodes, scheduled as a unit."""

    fragment_id: str
    workflow: EMWorkflow
    kind: ServiceKind
    calls: list[ServiceCall] = field(default_factory=list)

    def to_runtime_graph(self, context: "WorkflowContext") -> OperatorGraph:
        """This fragment as a runtime subgraph of its workflow's graph.

        Dependencies are restricted to intra-fragment edges — by the
        fragment contract, every external predecessor has already run
        when the metamanager dispatches the fragment.
        """
        graph = OperatorGraph(self.workflow.name)
        members = {call.node_id for call in self.calls}
        for call in self.calls:  # already in workflow topological order
            graph.add(
                call.node_id,
                _service_operator(call, context),
                deps=tuple(
                    sorted(
                        p for p in self.workflow.predecessors(call.node_id) if p in members
                    )
                ),
                description=call.service.description,
                checkpoint=False,
            )
        return graph

    def __repr__(self) -> str:
        return (
            f"Fragment({self.fragment_id}, {self.kind.value}, "
            f"{[c.node_id for c in self.calls]})"
        )


def _generation_order(successors: dict[str, list[str]]) -> list[str] | None:
    """Kahn's algorithm in generations; ``None`` when a cycle remains.

    The first generation is every node without predecessors, in map
    order; each later one lists the nodes the previous generation freed,
    in the order they were freed.  A FIFO queue yields exactly that order,
    so fragments that become ready together keep their map order.
    """
    indegree = dict.fromkeys(successors, 0)
    for targets in successors.values():
        for target in targets:
            indegree[target] += 1
    order = [node for node, degree in indegree.items() if degree == 0]
    for node in order:  # the queue grows while it is walked
        for target in successors[node]:
            indegree[target] -= 1
            if indegree[target] == 0:
                order.append(target)
    return order if len(order) == len(indegree) else None


def decompose_fragments(
    workflow: EMWorkflow,
) -> tuple[list[Fragment], dict[str, list[str]]]:
    """Split a workflow into same-kind fragments plus the fragment DAG.

    Fragments are the connected components (one :class:`UnionFind`) of the
    subgraph of edges joining nodes of the same kind, numbered in the
    order their first node was added; the fragment DAG, a successor map,
    inherits every cross-fragment edge.  Node order inside a fragment
    follows the workflow's topological order, so a fragment is executable
    as a unit once all its external predecessors have finished.  Fragments
    are returned in generation order of the fragment DAG.
    """
    successors = workflow.successors()
    position = {node: i for i, node in enumerate(_generation_order(successors))}

    def split(groups, name):
        fragments: dict[str, Fragment] = {}
        fragment_of: dict[str, str] = {}
        for index, group in enumerate(groups):
            nodes = sorted(group, key=position.__getitem__)
            fragment_id = f"{workflow.name}/{name(index, nodes[0])}"
            calls = [workflow.call(node) for node in nodes]
            fragments[fragment_id] = Fragment(fragment_id, workflow, calls[0].kind, calls)
            fragment_of.update(dict.fromkeys(nodes, fragment_id))
        dag: dict[str, list[str]] = {fragment_id: [] for fragment_id in fragments}
        for source, targets in successors.items():
            for target in targets:
                f_source, f_target = fragment_of[source], fragment_of[target]
                if f_source != f_target and f_target not in dag[f_source]:
                    dag[f_source].append(f_target)
        return fragments, dag, _generation_order(dag)

    components = UnionFind()
    for node in successors:
        components.add(node)
    for source, targets in successors.items():
        for target in targets:
            if workflow.call(source).kind == workflow.call(target).kind:
                components.union(source, target)
    fragments, dag, order = split(components.groups(), lambda index, _: f"f{index}")
    if order is None:
        # Merging same-kind components can create cycles at the fragment
        # level; fall back to singleton fragments.
        fragments, dag, order = split(
            ([node] for node in successors), lambda _, node: f"n_{node}"
        )
    return [fragments[fragment_id] for fragment_id in order], dag


def build_falcon_workflow(
    name: str,
    registry: ServiceRegistry,
    use_crowd: bool = False,
) -> EMWorkflow:
    """The stock Falcon workflow as a service DAG (Figure 3 as a graph).

    With ``use_crowd`` the two labeling-heavy services are re-tagged to the
    crowd engine (labels then come from the session's CrowdLabeler).
    """
    workflow = EMWorkflow(name)

    def service(service_name: str) -> Service:
        base = registry.get(service_name)
        if use_crowd and service_name in (
            "active_learn_blocking",
            "active_learn_matching",
        ):
            return Service(
                base.name, ServiceKind.CROWD, base.description, base.run, base.composite
            )
        return base

    workflow.add_call("upload", service("upload_tables"))
    workflow.add_call("metadata", service("edit_metadata"), after=["upload"])
    workflow.add_call("profile", service("profile_dataset"), after=["upload"])
    workflow.add_call("sample", service("sample_pairs"), after=["profile", "metadata"])
    workflow.add_call("blk_features", service("generate_blocking_features"), after=["profile"])
    workflow.add_call("sample_vectors", service("extract_sample_vectors"), after=["sample", "blk_features"])
    workflow.add_call("learn_blocking", service("active_learn_blocking"), after=["sample_vectors"])
    workflow.add_call("extract_rules", service("extract_blocking_rules"), after=["learn_blocking"])
    workflow.add_call("evaluate_rules", service("evaluate_blocking_rules"), after=["extract_rules"])
    workflow.add_call("execute_rules", service("execute_blocking_rules"), after=["evaluate_rules"])
    workflow.add_call("match_features", service("generate_matching_features"), after=["profile"])
    workflow.add_call(
        "candidate_vectors",
        service("extract_candidate_vectors"),
        after=["execute_rules", "match_features"],
    )
    workflow.add_call("learn_matching", service("active_learn_matching"), after=["candidate_vectors"])
    workflow.add_call("train", service("train_classifier"), after=["learn_matching"])
    workflow.add_call("apply", service("apply_classifier"), after=["train"])
    workflow.add_call("export", service("export_results"), after=["apply"])
    return workflow
