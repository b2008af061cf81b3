"""The Ansible Aware metric (novel metric #1 of the paper).

"The purpose of the Ansible-aware metric is to use knowledge of the Ansible
YAML syntax to compare the modules, keywords and parameters that comprise an
Ansible task or playbook."

Scoring rules, as specified in §Evaluation Metrics:

* a task/playbook is a mapping, so key order is insignificant;
* the score of a task is the average of the scores of the top-level
  key-value pairs found in the **target**;
* the ``name`` key and its value are ignored (no effect on execution);
* keys missing from the prediction score 0; keys *inserted* in the
  prediction are ignored ("insertions are less costly than deletions");
* the score of each key-value pair is the average of the key score and the
  value score;
* list/dict values are scored recursively by averaging entry scores;
* module names are FQCN-normalized before comparison; legacy ``k1=v1``
  argument strings are converted to dicts;
* near-equivalent modules (command/shell, copy/template, package/apt/dnf/yum)
  receive a partial key score averaged with the score of their arguments;
* playbooks average their top-level pairs, with each task scored as above.

An optional ``insertion_penalty`` implements the paper's announced follow-up
("we plan to investigate the impact of including an insertion penalty"): a
fraction subtracted per inserted key, floored at zero.
"""

from __future__ import annotations

from repro import yamlio
from repro.ansible.equivalence import module_key_score
from repro.ansible.fqcn import resolve_fqcn
from repro.ansible.keywords import PLAY_TASK_SECTIONS, TASK_KEYWORDS, looks_like_play
from repro.ansible.kv import parse_kv
from repro.ansible.modules import get_module
from repro.errors import AnsibleError, YamlError


def _scalar_score(target: object, prediction: object) -> float:
    """Scalars compare exactly; bool/str spellings of truth are unified."""
    if target == prediction:
        return 1.0
    if isinstance(target, bool) or isinstance(prediction, bool):
        return 1.0 if _as_bool(target) is not None and _as_bool(target) == _as_bool(prediction) else 0.0
    if isinstance(target, str) and isinstance(prediction, str):
        return 1.0 if target.strip() == prediction.strip() else 0.0
    return 0.0


def _as_bool(value: object) -> bool | None:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("yes", "true", "on"):
            return True
        if lowered in ("no", "false", "off"):
            return False
    return None


def _value_score(target: object, prediction: object) -> float:
    """Recursive value comparison following the paper's averaging rules."""
    if isinstance(target, dict):
        if not isinstance(prediction, dict):
            return 0.0
        return _dict_score(target, prediction)
    if isinstance(target, list):
        if not isinstance(prediction, list):
            return 0.0
        if not target:
            return 1.0 if not prediction else 1.0  # inserted items ignored
        scores = []
        for index, target_item in enumerate(target):
            if index < len(prediction):
                scores.append(_value_score(target_item, prediction[index]))
            else:
                scores.append(0.0)
        return sum(scores) / len(scores)
    return _scalar_score(target, prediction)


def _dict_score(target: dict, prediction: dict) -> float:
    """Generic mapping score: average over target pairs, insertions ignored."""
    pairs = [(key, value) for key, value in target.items()]
    if not pairs:
        return 1.0
    total = 0.0
    for key, value in pairs:
        if key in prediction:
            total += 0.5 + 0.5 * _value_score(value, prediction[key])
    return total / len(pairs)


def _normalize_args(module_name: str | None, args: object) -> object:
    """Convert legacy ``k=v`` argument strings into dicts before comparing."""
    if not isinstance(args, str):
        return args
    spec = get_module(module_name) if module_name else None
    free_form = bool(spec and spec.free_form)
    try:
        parsed = parse_kv(args, free_form=free_form)
    except AnsibleError:
        return args
    return parsed if parsed else args


def _split_task(task: dict) -> tuple[str | None, object, dict]:
    """Split a task mapping into (module, args, keyword-pairs)."""
    module = None
    args: object = None
    keywords: dict = {}
    for key, value in task.items():
        if isinstance(key, str) and key not in TASK_KEYWORDS:
            if module is None:
                module = key
                args = value
            else:
                keywords[key] = value  # ambiguous extra module key: treat as keyword
        else:
            keywords[key] = value
    return module, args, keywords


def task_score(target: object, prediction: object) -> float:
    """Ansible Aware score of one predicted task against the target task."""
    if not isinstance(target, dict):
        return _value_score(target, prediction)
    if not isinstance(prediction, dict):
        return 0.0
    target_module, target_args, target_keywords = _split_task(target)
    prediction_module, prediction_args, prediction_keywords = _split_task(prediction)

    pair_scores: list[float] = []

    if target_module is not None:
        target_fqcn = resolve_fqcn(target_module)
        if prediction_module is None:
            pair_scores.append(0.0)
        else:
            prediction_fqcn = resolve_fqcn(prediction_module)
            key_score = module_key_score(target_fqcn, prediction_fqcn)
            if key_score == 0.0:
                pair_scores.append(0.0)
            else:
                args_score = _value_score(
                    _normalize_args(target_module, target_args),
                    _normalize_args(prediction_module, prediction_args),
                )
                pair_scores.append((key_score + args_score) / 2.0)

    for key, value in target_keywords.items():
        if key == "name":
            continue  # explicitly ignored by the metric
        if key in ("block", "rescue", "always"):
            predicted = prediction_keywords.get(key, prediction.get(key))
            pair_scores.append(
                0.5 + 0.5 * _task_list_score(value, predicted) if predicted is not None else 0.0
            )
            continue
        if key in prediction_keywords:
            pair_scores.append(0.5 + 0.5 * _value_score(value, prediction_keywords[key]))
        else:
            pair_scores.append(0.0)

    if not pair_scores:
        # The target carries nothing but a name; there is nothing to get wrong.
        return 1.0
    return sum(pair_scores) / len(pair_scores)


def _task_list_score(target: object, prediction: object) -> float:
    if not isinstance(target, list):
        return _value_score(target, prediction)
    if not isinstance(prediction, list):
        return 0.0
    if not target:
        return 1.0
    scores = []
    for index, target_task in enumerate(target):
        if index < len(prediction):
            scores.append(task_score(target_task, prediction[index]))
        else:
            scores.append(0.0)
    return sum(scores) / len(scores)


def play_score(target: dict, prediction: object) -> float:
    """Score one predicted play against a target play."""
    if not isinstance(prediction, dict):
        return 0.0
    pairs = [(key, value) for key, value in target.items() if key != "name"]
    if not pairs:
        return 1.0
    total = 0.0
    for key, value in pairs:
        if key not in prediction:
            continue
        if key in PLAY_TASK_SECTIONS:
            total += 0.5 + 0.5 * _task_list_score(value, prediction[key])
        else:
            total += 0.5 + 0.5 * _value_score(value, prediction[key])
    return total / len(pairs)


def snippet_score(target: object, prediction: object) -> float:
    """Score arbitrary parsed Ansible YAML: playbook, task list, or task."""
    if isinstance(target, list):
        if not isinstance(prediction, list):
            return 0.0
        if not target:
            return 1.0
        scores = []
        for index, target_entry in enumerate(target):
            predicted_entry = prediction[index] if index < len(prediction) else None
            if predicted_entry is None:
                scores.append(0.0)
            elif isinstance(target_entry, dict) and looks_like_play(target_entry):
                scores.append(play_score(target_entry, predicted_entry))
            else:
                scores.append(task_score(target_entry, predicted_entry))
        return sum(scores) / len(scores)
    if isinstance(target, dict):
        if looks_like_play(target):
            return play_score(target, prediction)
        return task_score(target, prediction)
    return _value_score(target, prediction)


def ansible_aware(reference: str, prediction: str, insertion_penalty: float = 0.0) -> float:
    """Ansible Aware score in [0, 100] between two YAML texts.

    Unparseable predictions score 0.  ``insertion_penalty`` subtracts the
    given fraction for each top-level key the prediction inserts beyond the
    target (default 0, matching the paper's published metric).
    """
    try:
        target = yamlio.loads(reference)
    except YamlError:
        target = None
    if target is None:
        return 0.0
    try:
        predicted = yamlio.loads(prediction)
    except YamlError:
        return 0.0
    score = snippet_score(target, predicted)
    if insertion_penalty > 0.0:
        score = max(0.0, score - insertion_penalty * _count_insertions(target, predicted))
    return 100.0 * score


def _count_insertions(target: object, prediction: object) -> int:
    """Count predicted top-level keys absent from the target."""
    insertions = 0
    if isinstance(target, dict) and isinstance(prediction, dict):
        insertions += sum(1 for key in prediction if key not in target)
    elif isinstance(target, list) and isinstance(prediction, list):
        for target_entry, predicted_entry in zip(target, prediction):
            insertions += _count_insertions(target_entry, predicted_entry)
        insertions += max(0, len(prediction) - len(target))
    return insertions
