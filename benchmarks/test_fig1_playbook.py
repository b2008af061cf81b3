"""Figure 1 — the paper's example playbook, end to end through the stack."""

from __future__ import annotations

from repro import ansible, yamlio
from repro.metrics import ansible_aware, is_schema_correct

FIG1 = """---
- hosts: servers
  tasks:
    - name: Install SSH server
      ansible.builtin.apt:
        name: openssh-server
        state: present
    - name: Start SSH server
      ansible.builtin.service:
        name: ssh
        state: started
"""


def test_fig1_full_stack(benchmark):
    benchmark(lambda: yamlio.loads(FIG1))
    data = yamlio.loads(FIG1)
    assert ansible.classify_snippet(data) == "playbook"
    assert ansible.validate(data) == []
    assert is_schema_correct(FIG1)
    assert yamlio.dumps(data) == FIG1
    assert ansible_aware(FIG1, FIG1) == 100.0
    print("\nFigure 1 playbook: parse ✓ schema ✓ byte-exact round-trip ✓")


def test_fig1_model_view(benchmark):
    benchmark(lambda: yamlio.loads(FIG1))
    playbook = ansible.Playbook.from_data(yamlio.loads(FIG1))
    tasks: list[ansible.Task] = playbook.all_tasks()
    assert [t.name for t in tasks] == ["Install SSH server", "Start SSH server"]
    assert [t.fqcn for t in tasks] == ["ansible.builtin.apt", "ansible.builtin.service"]


def test_benchmark_fig1_parse(benchmark):
    data = benchmark(lambda: yamlio.loads(FIG1))
    assert len(data) == 1


def test_benchmark_fig1_validate(benchmark):
    data = yamlio.loads(FIG1)
    violations = benchmark(lambda: ansible.validate(data))
    assert violations == []
