"""Compute providers: lifecycle state machine, billing, capacity limits."""

import pytest

from repro.cloud.azure import AzureProvider
from repro.cloud.credentials import CredentialError, Credentials
from repro.cloud.ec2 import EC2_INSTANCE_TYPES, EC2Provider
from repro.cloud.private import PrivateCloudProvider
from repro.cloud.provider import (InstanceState, InstanceType, ProviderError,
                                  billed_hours)
from repro.metrics.costs import experiment_cost


@pytest.fixture
def creds():
    return Credentials(
        provider="ec2", username="ubuntu",
        access_key_id="AKIA" + "C" * 12, secret_key="sk",
    )


@pytest.fixture
def ec2(creds):
    return EC2Provider(credentials=creds)


def test_catalog_has_papers_instance():
    t = EC2_INSTANCE_TYPES["c3.8xlarge"]
    assert t.vcpus == 32
    assert t.physical_cores == 16
    assert t.ram_gb == 60.0
    assert t.hourly_usd == pytest.approx(1.68)


def test_unknown_instance_type_rejected(ec2):
    with pytest.raises(ProviderError):
        ec2.launch("z9.mega", now=0.0)


def test_launch_starts_pending(ec2):
    inst = ec2.launch("c3.8xlarge", now=0.0)[0]
    assert inst.state == InstanceState.PENDING
    assert not inst.is_usable


def test_boot_is_parallel(ec2):
    instances = ec2.launch("c3.8xlarge", now=0.0, count=4)
    ready = ec2.wait_running(instances, now=0.0)
    assert ready == pytest.approx(ec2.boot_delay_s)
    assert all(i.state == InstanceState.RUNNING for i in instances)


def test_stop_bills_whole_hours_rounded_up(ec2):
    inst = ec2.launch("c3.8xlarge", now=0.0)[0]
    ec2.wait_running([inst], now=0.0)
    ec2.stop(inst.instance_id, now=inst.running_since + 3700.0)  # 1h02
    assert inst.billed_hours == 2.0
    assert ec2.ledger.total_usd() == pytest.approx(2 * 1.68)


def test_one_billing_rule_for_instances_and_estimates():
    """Whole seconds, rounded up to whole hours, at least one: the rule the
    provider bills by and the cost estimate charges."""
    assert [billed_hours(s) for s in (0.0, 3600.9, 3601.0, 7200.0, 7201.0)] == [
        1.0, 1.0, 2.0, 2.0, 3.0]
    for seconds in (0.0, 3700.0, 9000.5):
        assert experiment_cost(seconds).hours_billed == billed_hours(seconds)


def test_minimum_billing_is_one_hour(ec2):
    inst = ec2.launch("c3.8xlarge", now=0.0)[0]
    ec2.wait_running([inst], now=0.0)
    ec2.stop(inst.instance_id, now=inst.running_since + 30.0)
    assert inst.billed_hours == 1.0


def test_stop_start_cycle(ec2):
    inst = ec2.launch("c3.8xlarge", now=0.0)[0]
    ec2.wait_running([inst], now=0.0)
    t0 = inst.running_since
    ec2.stop(inst.instance_id, now=t0 + 100.0)
    assert inst.state == InstanceState.STOPPED
    up = ec2.start(inst.instance_id, now=t0 + 500.0)
    assert inst.state == InstanceState.RUNNING
    assert up == pytest.approx(t0 + 500.0 + ec2.boot_delay_s)


def test_cannot_stop_a_stopped_instance(ec2):
    inst = ec2.launch("c3.8xlarge", now=0.0)[0]
    ec2.wait_running([inst], now=0.0)
    ec2.stop(inst.instance_id, now=100.0)
    with pytest.raises(ProviderError):
        ec2.stop(inst.instance_id, now=200.0)


def test_cannot_start_a_running_instance(ec2):
    inst = ec2.launch("c3.8xlarge", now=0.0)[0]
    ec2.wait_running([inst], now=0.0)
    with pytest.raises(ProviderError):
        ec2.start(inst.instance_id, now=100.0)


def test_terminate_bills_running_instance(ec2):
    inst = ec2.launch("c3.8xlarge", now=0.0)[0]
    ec2.wait_running([inst], now=0.0)
    ec2.terminate(inst.instance_id, now=inst.running_since + 10.0)
    assert inst.state == InstanceState.TERMINATED
    assert ec2.ledger.total_usd() > 0


def test_terminated_instance_cannot_boot(ec2):
    inst = ec2.launch("c3.8xlarge", now=0.0)[0]
    ec2.terminate(inst.instance_id, now=0.0)
    with pytest.raises(ProviderError):
        ec2.wait_running([inst], now=10.0)


def test_instance_limit_enforced(creds):
    ec2 = EC2Provider(credentials=creds, instance_limit=2)
    ec2.launch("c3.8xlarge", now=0.0, count=2)
    with pytest.raises(ProviderError):
        ec2.launch("c3.8xlarge", now=0.0, count=1)


def test_missing_credentials_rejected():
    ec2 = EC2Provider()
    with pytest.raises(ProviderError):
        ec2.launch("c3.8xlarge", now=0.0)


def test_bad_credentials_rejected():
    bad = Credentials(provider="ec2", username="u", access_key_id="nope", secret_key="s")
    ec2 = EC2Provider(credentials=bad)
    with pytest.raises(CredentialError):
        ec2.launch("c3.8xlarge", now=0.0)


def test_describe_unknown_instance(ec2):
    with pytest.raises(ProviderError):
        ec2.describe("ec2-99999")


def test_instances_filter_by_state(ec2):
    a, b = ec2.launch("c3.8xlarge", now=0.0, count=2)
    ec2.wait_running([a], now=0.0)
    assert len(ec2.instances(InstanceState.RUNNING)) == 1
    assert len(ec2.instances()) == 2


def test_vcpus_must_be_even():
    with pytest.raises(ValueError):
        InstanceType("odd", vcpus=3, ram_gb=1.0, hourly_usd=0.1)


# --------------------------------------------------------------------- Azure
def test_azure_boots_slower_than_ec2():
    creds = Credentials(provider="azure", username="acct", secret_key="k")
    az = AzureProvider(credentials=creds)
    assert az.boot_delay_s > EC2Provider.boot_delay_s
    inst = az.launch("D4_v2", now=0.0)[0]
    assert inst.itype.vcpus == 8


def test_azure_unknown_size():
    creds = Credentials(provider="azure", username="acct", secret_key="k")
    az = AzureProvider(credentials=creds)
    with pytest.raises(ProviderError):
        az.instance_type("c3.8xlarge")


# ------------------------------------------------------------------- Private
def test_private_cloud_is_free_and_instant():
    creds = Credentials(provider="private", username="me")
    pc = PrivateCloudProvider(credentials=creds, machine_count=3)
    instances = pc.launch("rack-node", now=0.0, count=3)
    assert pc.wait_running(instances, now=0.0) == 0.0
    pc.stop(instances[0].instance_id, now=7200.0)
    assert pc.ledger.total_usd() == 0.0


def test_private_cloud_capacity():
    creds = Credentials(provider="private", username="me")
    pc = PrivateCloudProvider(credentials=creds, machine_count=2)
    pc.launch("rack-node", now=0.0, count=2)
    with pytest.raises(ProviderError):
        pc.launch("rack-node", now=0.0)
