"""Reference groupoid constructions for checking the index-table builders.

These are the name-keyed builders that ``groupoid.pair_groupoid``,
``one_object_groupoid``, ``disjoint_union`` and ``restrict`` replaced: each
writes every morphism, composition triple and inverse out under its label
and hands the description to ``validate_groupoid``, which parses the labels
back.  ``reference_restrict`` is the raw description that
``grading.restrict_grading`` built for its subgroupoid, with the morphism
map read back by label.
"""

from __future__ import annotations

from gprime.groupoid import FiniteGroup, validate_groupoid


def tables(G):
    """Everything a groupoid is: objects, labels, endpoints, products, inverses."""
    return G.objects, G.morphisms, G.src, G.rng, G._comp, G.inv


def reference_pair_groupoid(object_labels, group=None):
    group = group if group is not None else FiniteGroup.trivial()
    objs = list(object_labels)

    def name(i, j, a):
        if i == j and a == 0:
            return objs[i]
        tag = f"{objs[j]}>{objs[i]}"
        return tag if group.order == 1 else f"{tag}:{group.labels[a]}"

    morphisms = []
    for i in range(len(objs)):
        for j in range(len(objs)):
            for a in group.elements():
                if i == j and a == 0:
                    continue
                morphisms.append({"name": name(i, j, a), "src": objs[j], "rng": objs[i]})
    compose = []
    inverse = {}
    for i in range(len(objs)):
        for j in range(len(objs)):
            for a in group.elements():
                inverse[name(i, j, a)] = name(j, i, group.inv(a))
                for k in range(len(objs)):
                    for b in group.elements():
                        compose.append([name(i, j, a), name(j, k, b), name(i, k, group.mul(a, b))])
    return validate_groupoid({"objects": objs, "morphisms": morphisms,
                              "compose": compose, "inverse": inverse})


def reference_one_object_groupoid(group, object_label=None):
    obj = object_label if object_label is not None else group.labels[0]
    names = [obj] + list(group.labels[1:])
    morphisms = [{"name": names[a], "src": obj, "rng": obj} for a in range(1, group.order)]
    compose = [[names[a], names[b], names[group.mul(a, b)]]
               for a in range(1, group.order) for b in range(1, group.order)]
    inverse = {names[a]: names[group.inv(a)] for a in range(1, group.order)}
    return validate_groupoid({"objects": [obj], "morphisms": morphisms,
                              "compose": compose, "inverse": inverse})


def reference_disjoint_union(parts):
    all_labels = [lab for p in parts for lab in p.morphisms]
    clash = len(set(all_labels)) != len(all_labels)

    def tag(i, lab):
        return f"c{i}.{lab}" if clash else lab

    objects, morphisms, compose, inverse = [], [], [], {}
    for i, p in enumerate(parts):
        objects.extend(tag(i, o) for o in p.objects)
        for g in range(p.n_morphisms):
            if not p.is_identity(g):
                morphisms.append({"name": tag(i, p.morphisms[g]),
                                  "src": tag(i, p.objects[p.src[g]]),
                                  "rng": tag(i, p.objects[p.rng[g]])})
            inverse[tag(i, p.morphisms[g])] = tag(i, p.morphisms[p.inv[g]])
        for (g, h) in p.composable_pairs():
            compose.append([tag(i, p.morphisms[g]), tag(i, p.morphisms[h]),
                            tag(i, p.morphisms[p.compose(g, h)])])
    return validate_groupoid({"objects": objects, "morphisms": morphisms,
                              "compose": compose, "inverse": inverse})


def reference_restrict(sub):
    G = sub.parent
    members = sorted(sub.members)
    raw = {
        "objects": [G.objects[e] for e in sub.object_list()],
        "morphisms": [{"name": G.morphisms[g], "src": G.objects[G.src[g]],
                       "rng": G.objects[G.rng[g]]}
                      for g in members if not G.is_identity(g)],
        "compose": [[G.morphisms[g], G.morphisms[h], G.morphisms[G.compose(g, h)]]
                    for g in members for h in members if G.composable(g, h)],
        "inverse": {G.morphisms[g]: G.morphisms[G.inv[g]] for g in members},
    }
    small = validate_groupoid(raw)
    return small, {g: small.morphism_index(G.morphisms[g]) for g in members}


def is_normal(group, sub):
    """Whether ``sub`` (given with parent_elements into ``group``) is normal."""
    members = set(sub.parent_elements)
    return all(group.mul(group.mul(g, x), group.inv(g)) in members
               for g in group.elements() for x in sub.parent_elements)
