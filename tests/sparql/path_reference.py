"""Property paths by definition, for tests to hold the engine against.

Every function reads only ``graph.triples()`` of the graph it is given,
in the order that graph lists them, and walks one BFS per start: no
memo, no adjacency, no edge source.  The engine's walks must yield the
same pairs in the same order.
"""

from repro.sparql.paths import PathAlternative, PathClosure, PathInverse, PathSequence


def ref_step(graph, path, node):
    """One *path* step from *node*, in the order the graph lists it."""
    if isinstance(path, PathInverse):
        return [t.subject for t in graph.triples(None, path.inner, node)]
    if isinstance(path, PathAlternative):
        return [n for option in path.options for n in ref_step(graph, option, node)]
    if isinstance(path, PathSequence):
        frontier = [node]
        for step in path.steps:
            frontier = [n for mid in frontier for n in ref_step(graph, step, mid)]
        return frontier
    return [t.object for t in graph.triples(node, path, None)]


def ref_pairs(graph, path):
    """Every one-step pair of *path*, in full-enumeration order."""
    if isinstance(path, PathInverse):
        return [(t.object, t.subject) for t in graph.triples(None, path.inner, None)]
    if isinstance(path, PathAlternative):
        return [pair for option in path.options for pair in ref_pairs(graph, option)]
    if isinstance(path, PathSequence):
        rest = PathSequence(path.steps[1:]) if len(path.steps) > 2 else path.steps[1]
        return [(s, o) for s, mid in ref_pairs(graph, path.steps[0])
                for o in ref_step(graph, rest, mid)]
    return [(t.subject, t.object) for t in graph.triples(None, path, None)]


def ref_plus(graph, path):
    """``path+`` with both ends unbound, by definition: a BFS from each
    node that begins a step, in the order the steps list them."""
    rows = []
    for start in dict.fromkeys(s for s, _ in ref_pairs(graph, path)):
        visited, frontier = set(), [start]
        while frontier:
            next_frontier = []
            for node in frontier:
                for neighbor in ref_step(graph, path, node):
                    if neighbor not in visited:
                        visited.add(neighbor)
                        next_frontier.append(neighbor)
                        rows.append((start, neighbor))
            frontier = next_frontier
    return rows


def ref_step_back(graph, path, node):
    """The nodes one *path* step leads from to *node*, in the order the
    graph lists them."""
    if isinstance(path, PathInverse):
        return [t.object for t in graph.triples(node, path.inner, None)]
    if isinstance(path, PathAlternative):
        return [n for option in path.options for n in ref_step_back(graph, option, node)]
    if isinstance(path, PathSequence):
        frontier = [node]
        for step in reversed(path.steps):
            frontier = [n for mid in frontier for n in ref_step_back(graph, step, mid)]
        return frontier
    return [t.subject for t in graph.triples(None, path, node)]


def ref_reach(step, start, include_zero):
    """The nodes a fresh BFS from *start* alone reaches, in discovery
    order, where ``step(node)`` lists a node's one-step neighbours."""
    reached = [start] if include_zero else []
    visited, frontier = set(reached), [start]
    while frontier:
        next_frontier = []
        for node in frontier:
            for neighbor in step(node):
                if neighbor not in visited:
                    visited.add(neighbor)
                    next_frontier.append(neighbor)
                    reached.append(neighbor)
        frontier = next_frontier
    return reached


def ref_eval(graph, path, subject=None, obj=None):
    """The duplicate-free pairs *path* connects between the (optionally
    bound) endpoints, in the order a walk of these endpoints alone finds
    them."""
    if isinstance(path, PathClosure):
        inner, zero = path.inner, path.include_zero
        if subject is not None:
            reached = ref_reach(lambda n: ref_step(graph, inner, n), subject, zero)
            pairs = [(subject, n) for n in reached if obj is None or n == obj]
        elif obj is not None:
            pairs = [(n, obj) for n in ref_reach(
                lambda n: ref_step_back(graph, inner, n), obj, zero)]
        else:
            nodes = [n for t in graph.triples() for n in (t.subject, t.object)]
            pairs = [(n, n) for n in dict.fromkeys(nodes)] if zero else []
            pairs += ref_plus(graph, inner)
    elif subject is not None:
        pairs = [(subject, n) for n in ref_step(graph, path, subject)
                 if obj is None or n == obj]
    elif obj is not None:
        pairs = [(n, obj) for n in ref_step_back(graph, path, obj)]
    else:
        pairs = ref_pairs(graph, path)
    return list(dict.fromkeys(pairs))
